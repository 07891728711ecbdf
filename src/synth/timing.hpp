// synth::TimingModel — the tabulated per-primitive × per-bitwidth
// delay / latency / area / energy characterization that drives both sides
// of the synthesis story:
//
//   * estimation (src/synth/estimate.cpp prices RTL cells from these rows
//     instead of hand-rolled constants), and
//   * optimization (the dp-level latch placement in build-datapath puts
//     pipeline registers so every stage's combinational delay fits the
//     --target-ns budget).
//
// The built-in table is a Virtex-II-class characterization (xc2v2000,
// speed grade -5 ballpark — the device the paper evaluated on with ISE
// 5.1i). It is generated once from closed-form per-primitive formulas and
// stored as dense breakpoint rows; `cost()` interpolates piecewise-linearly
// between breakpoints and clamps outside them, so a loaded model needs only
// the widths it cares about.
//
// A model file (--timing-model FILE) starts from the built-in table and
// overrides scalars and/or whole primitives. Format, one directive per
// line ('#' comments):
//
//   model NAME
//   clock-overhead-ns X      routing-per-hop-ns X    core-voltage X
//   bram-access-ns X         rom-mux-level-ns X
//   cap-{lut,ff,mult18,bram}-pf X
//   leak-{lut,ff,mult18,bram}-uw X
//   <primitive> <width> <delay-ns> <latency> <lut4> <ff> [<mult18> <bram> [<dyn-pj> <leak-uw>]]
//
// The first row for a primitive discards that primitive's built-in rows
// (override is per-primitive, all-or-nothing). Omitted energy columns are
// derived from the row's resources and the capacitance / leakage scalars.
#pragma once

#include <array>
#include <map>
#include <string>

namespace roccc::synth {

/// The characterized datapath primitives. Wiring-only operations (resize,
/// slice, concat, constants, I/O copies) have no row — they are free.
enum class Primitive {
  Add,    ///< add/sub/negate (LUT + MUXCY/XORCY carry chain)
  MulLut, ///< LUT-fabric array multiplier
  Mul18,  ///< MULT18X18 block multiplier
  Div,    ///< restoring array divider (one subtract-mux row per bit)
  Logic,  ///< bitwise and/or/xor/not
  Shift,  ///< barrel shifter, variable amount (constant shifts are wiring)
  Cmp,    ///< comparator — carry chain spanning the operands
  Mux,    ///< 2:1 word mux
  Reg,    ///< pipeline register
  Rom,    ///< table read (the BRAM/distributed split is structural)
};
inline constexpr int kPrimitiveCount = 10;

const char* primitiveName(Primitive p);
/// Parses a primitive's table name ("add", "mul-lut", ...). False if unknown.
bool primitiveByName(const std::string& name, Primitive& out);

/// One breakpoint row: the cost of a primitive at one operand bitwidth.
struct PrimitiveCost {
  double delayNs = 0;    ///< combinational delay through the primitive
  int latencyCycles = 0; ///< internal pipeline latency (reserved; built-in rows are 0)
  double lut4 = 0;
  double ff = 0;
  double mult18 = 0;
  double bram = 0;
  double dynamicPj = 0;  ///< switched energy per full-activity evaluation
  double leakageUw = 0;  ///< static leakage
};

struct TimingModel {
  std::string name = "virtex2-xc2v2000-5";

  // Device scalars (shared by estimation and staging).
  double clockOverheadNs = 0.8; ///< clock-to-out + setup per register path
  double routingPerHopNs = 0.3; ///< average routing per cell-to-cell hop
  double coreVoltage = 1.5;     ///< V, for the CV^2 energy terms
  double bramAccessNs = 2.9;    ///< block-RAM ROM read
  double romMuxLevelNs = 0.4;   ///< per mux level of a distributed ROM read

  // Per-resource switched capacitance (pF) and leakage (uW) — the basis of
  // every derived energy column and of estimatePowerMw.
  double capLutPf = 4.0, capFfPf = 2.0, capMult18Pf = 60.0, capBramPf = 90.0;
  double leakLutUw = 1.5, leakFfUw = 0.8, leakMult18Uw = 15.0, leakBramUw = 25.0;

  /// Breakpoint rows per primitive, keyed by width, sorted (std::map).
  std::array<std::map<int, PrimitiveCost>, kPrimitiveCount> rows;

  /// The built-in Virtex-II-class table (process-wide singleton).
  static const TimingModel& virtex2();

  /// Parses `text` over a copy of the built-in table. Empty text yields the
  /// built-in table unchanged. On failure returns false with a
  /// line-numbered message in `error`.
  static bool parse(const std::string& text, TimingModel& out, std::string& error);

  /// The model a compile's timing-model spec selects: virtex2() itself
  /// when `spec` is empty (no copy), else `spec` parsed into `storage`.
  /// Null on a parse error, with the message in `error`.
  static const TimingModel* resolve(const std::string& spec, TimingModel& storage,
                                    std::string& error);

  /// Renders the model in the file format (parse(dump()) round-trips).
  std::string dump() const;

  /// Cost at `width`: piecewise-linear between breakpoints, clamped to the
  /// first/last row outside them. A primitive with no rows costs zero.
  PrimitiveCost cost(Primitive p, int width) const;
  double delayNs(Primitive p, int width) const { return cost(p, width).delayNs; }

  /// Switched energy (pJ) of one full-activity toggle of the given mapped
  /// resources, from the capacitance scalars: sum(C_i) * V^2.
  double resourceDynamicPj(double lut4, double ff, double mult18, double bram) const;
  /// Static leakage (uW) of the given mapped resources.
  double resourceLeakageUw(double lut4, double ff, double mult18, double bram) const;
};

} // namespace roccc::synth
