// roccc::explore — the design-space exploration engine (ROADMAP item 2).
//
// One compile per kernel is never the real workload: architects sweep
// unroll factor x compile options x smart-buffer geometry and pick from the
// area/fmax/cycles/energy Pareto frontier. This module turns that workflow
// into a first-class, deterministic batch job:
//
//   SweepGrid      declares the axes: kernels x the kSweepOptions rows of
//                  the option table (unroll, target-ns, pipeline, width-mode,
//                  ...) x smart-buffer/bus geometry.
//   expandGrid     crosses every axis into a flat job list, sets each
//                  point's CompileOptions through the rows, and deduplicates
//                  points whose (source, options, geometry) are semantically
//                  identical (two spellings of the default target-ns, a
//                  repeated axis value, ...). Expansion order is fixed, so
//                  the point list is a pure function of the grid.
//   runSweep       fans the points through roccc::CompileService — the
//                  per-job CompileBudget bounds each — then collects
//                  per-point metrics from each compile's in-memory IR: the
//                  unroll factor the compile applied, slices / LUT / FF /
//                  MULT18 / BRAM and modeled fmax + energy from
//                  synth::estimate, cycles and BRAM traffic from a FastSim
//                  system run on the same deterministic stimulus the
//                  conformance engine uses. Every point is compiled once;
//                  a sweep takes no compile cache, since a hit carries no
//                  IR to measure.
//   paretoFrontier computes the non-dominated set per kernel over the
//                  user-selected axes (dominated-point removal; metric
//                  ties keep both points; a single axis degenerates to
//                  "all points sharing the best value").
//   verifyFrontier re-verifies every Pareto-optimal point through the
//                  5-way differential conformance engine (roccc/verify.*)
//                  plus its system testbench, so a sweep can never
//                  recommend a configuration that miscompiles.
//
// Determinism guarantee (tests/explore_test.cpp): a sweep report is a pure
// function of (grid, options) — SweepResult::toJson().pretty() is byte-identical
// across worker counts. Wall-time fields are exempt and only serialized on
// request (toJson(true)); this is the same contract compileBatch gives.
//
// Fault containment extends to exploration: a point can fail — compile
// outcome or simulation error — but a sweep cannot crash. Failed points are
// recorded as typed PointOutcome rows in the report (never silently
// dropped), and sibling points are byte-unaffected
// (tests/explore_fault_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "roccc/driver.hpp"
#include "roccc/options.hpp"
#include "roccc/verify.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace roccc {

// --- grid declaration --------------------------------------------------------

/// The compile options a sweep grid can vary, in expansion order (the first
/// is the outermost loop). Each is a row of the option table, so a value
/// means at a sweep what it means at every other front door.
inline constexpr OptionId kSweepOptions[] = {
    OptionId::Unroll,   OptionId::AutoUnrollBudget, OptionId::TargetNs,   OptionId::Pipeline,
    OptionId::Optimize, OptionId::LutConvert,       OptionId::WidthMode,  OptionId::MultStyle,
};

/// The grid-file directive of sweep option `id`: its row's CLI flag without
/// the leading "--" and "no-" ("unroll", "pipeline", "lut-convert", ...).
std::string_view sweepDirective(OptionId id);

/// The sweep grid: kernels x option axes x smart-buffer geometry. An option
/// without an axis keeps `base`'s value, so a grid with one kernel and no
/// axes is exactly one compile.
struct SweepGrid {
  struct Kernel {
    std::string name;
    std::string source;
    /// Per-kernel stage-delay default (the Table 1 per-row targets): it
    /// replaces base's targetNs, and a targetNs axis value of 0 stands for it.
    double defaultTargetNs = 0;
  };
  /// One swept option: a kSweepOptions row and the protocol values it
  /// takes, in order, each checked by the row (setAxis).
  struct Axis {
    OptionId id;
    std::vector<json::Value> values;
  };

  std::vector<Kernel> kernels;
  /// At most one axis per option, in any order: expansion nests them in
  /// kSweepOptions order.
  std::vector<Axis> axes;
  /// Smart-buffer geometry, not a compile option: elements fetched per
  /// clock, and smart vs naive (re-fetching) buffering.
  std::vector<int> busElems{1};
  std::vector<bool> smartBuffer{true};

  /// Base options every point starts from: budget limits, timing-model
  /// override, fault arming. Axis values overwrite their fields.
  CompileOptions base;

  /// Sets option `id`'s axis from value tokens, replacing any earlier axis
  /// of `id`. The row checks each token as it checks a CLI value, except
  /// that a Bool row takes `on`/`off` and targetNs also takes 0. False, with
  /// "value 'V' must be ..." in `error`, leaving the grid unchanged.
  bool setAxis(OptionId id, const std::vector<std::string>& tokens, std::string& error);
  /// Sets `axis`, replacing any earlier axis of the same option.
  void setAxis(Axis axis);
};

/// The CLI flag of sweep option `id` as an axis: row `id`'s flag taking a
/// comma-separated LIST, each value checked as setAxis checks it.
cli::OptionSpec sweepAxisFlag(OptionId id, SweepGrid& grid, const char* help);

/// One expanded design point: a (kernel, options, geometry) triple with a
/// stable human-readable label ("fir@u2/ns4/mult18/naive").
struct SweepPoint {
  std::string kernel; ///< kernel name (frontier grouping key)
  std::string label;  ///< unique within the sweep; stable across runs
  std::string source; ///< C source text (not serialized to JSON)
  CompileOptions options; ///< fully resolved compile options
  int busElems = 1;
  bool smartBuffer = true;
};

/// The point's `config` object in the JSON report, which prints it on one
/// line: {"unroll": 2, "autoUnrollBudget": 0, "targetNs": 4, ...}.
json::Value pointConfigJson(const SweepPoint& point);

/// Crosses the grid into the deduplicated, deterministically-ordered point
/// list. Dedup key: (kernel name, content-addressed compile key via
/// roccc::computeCacheKey, buffer geometry) — the first spelling wins.
std::vector<SweepPoint> expandGrid(const SweepGrid& grid);

// --- grid manifest files -----------------------------------------------------

/// A parsed sweep grid file (roccc-explore --manifest; bench/sweeps/*.sweep;
/// format reference in docs/EXPLORE.md). Kernel references are left
/// unresolved — `table1` names resolve against bench/kernels.hpp in the
/// tool, `kernel NAME PATH` paths load relative to the manifest — so the
/// parser itself stays pure and testable.
struct SweepManifest {
  SweepGrid grid; ///< axes and geometry (grid.kernels stays empty)
  struct KernelFile {
    std::string name;
    std::string path;
  };
  std::vector<KernelFile> kernelFiles;
  /// Table 1 kernel names requested by `table1 [name...]`.
  std::vector<std::string> table1;
  bool table1All = false; ///< bare `table1` — all nine
  std::vector<int> axes; ///< SweepAxis values; empty = caller default
  uint64_t seed = 0;
  bool seedSet = false;
};

/// Parses a grid file: one `directive value...` per line, values split on
/// spaces and/or commas, blank lines and #-comments skipped. On failure
/// returns false with a line-numbered message in `error`
/// ("line 7: unknown directive 'unrol'").
bool parseSweepManifest(const std::string& text, SweepManifest& out, std::string& error);

// --- metrics and Pareto ------------------------------------------------------

/// The Pareto axes a frontier can be computed over. FmaxMHz and Throughput
/// maximize; everything else minimizes.
enum class SweepAxis { Slices, FmaxMHz, Cycles, EnergyPjPerCycle, EdpPjNs, Throughput };
inline constexpr int kSweepAxisCount = 6;
const char* sweepAxisName(SweepAxis axis);         ///< "slices", "fmax", ...
bool parseSweepAxis(const std::string& name, SweepAxis& out);
bool sweepAxisMaximizes(SweepAxis axis);

/// Per-point measurements: area/timing/energy from synth::estimate under
/// the point's timing model, cycles/traffic/throughput from a FastSim
/// system run at the point's buffer geometry.
struct PointMetrics {
  /// The unroll factor the compile applied (the `unroll` pass's
  /// unroll-factor counter): the axis value, or an auto-unroll search's
  /// choice.
  int64_t unroll = 1;
  int64_t slices = 0;
  int64_t lut4 = 0, ff = 0, mult18 = 0, bram = 0;
  int stages = 0;
  /// Stage-crossing register cost split (the pipeline-ablation columns):
  /// registers carrying values between stages, and the "adjoining def-ref"
  /// balancing copies.
  int64_t pipelineRegBits = 0, balanceRegBits = 0;
  double criticalPathNs = 0, fmaxMHz = 0;
  int64_t cycles = 0;    ///< FastSim system cycles over the iteration space
  int64_t bramReads = 0; ///< off-buffer element reads (smart-buffer reuse)
  double throughput = 0; ///< output elements per clock, steady state
  double energyPjPerCycle = 0;
  double edpPjNs = 0;
};

/// Reads one axis out of a metric set.
double metricValue(const PointMetrics& m, SweepAxis axis);

/// Generic dominated-point removal. `rows[i]` holds one value per axis;
/// `maximize[a]` flips axis a's direction. Returns the indices of the
/// non-dominated rows in input order. A row dominates another when it is
/// better-or-equal on every axis and strictly better on at least one —
/// ties (identical rows) dominate nothing, so both stay.
std::vector<size_t> paretoFrontier(const std::vector<std::vector<double>>& rows,
                                   const std::vector<bool>& maximize);

// --- sweep execution ---------------------------------------------------------

/// How a point ended. The compile outcomes map 1:1 from CompileOutcome;
/// SimError is a contained metric-collection failure (the design compiled
/// but the system simulation threw — cycle limit, unbindable port).
enum class PointOutcome { Ok, FrontendError, Timeout, ResourceExceeded, InternalError, SimError };
const char* pointOutcomeName(PointOutcome outcome);
PointOutcome pointOutcomeFrom(CompileOutcome outcome);

struct SweepPointResult {
  SweepPoint point;
  PointOutcome outcome = PointOutcome::Ok;
  std::string error;   ///< first diagnostic / simulation error when not Ok
  bool pareto = false; ///< on its kernel's frontier
  PointMetrics metrics; ///< valid when outcome == Ok
  double compileMs = 0; ///< wall time, exempt from byte-determinism
};

/// A kernel's frontier: indices into SweepResult::points, in point order,
/// plus the recommended configuration ("best"): the frontier point with the
/// lowest total runtime (cycles x clock period), area then label breaking
/// ties.
struct KernelFrontier {
  std::string kernel;
  std::vector<size_t> points;
  size_t best = 0; ///< index into SweepResult::points
};

struct SweepOptions {
  /// Frontier axes (order is presentation only; the set is what matters).
  std::vector<SweepAxis> axes{SweepAxis::Slices, SweepAxis::FmaxMHz, SweepAxis::Cycles};
  /// Stimulus seed for the FastSim cycle-collection run (the same
  /// SplitMix64 derivation the conformance engine uses).
  uint64_t seed = 0x0dc5'2005;
  int workers = 0; ///< CompileService workers (0 = hardware)
  /// Skip the FastSim run (area/timing-only sweeps; cycles stay 0 and the
  /// Cycles/Throughput axes are unavailable).
  bool collectCycles = true;
};

struct SweepResult {
  std::vector<SweepAxis> axes;
  uint64_t seed = 0;
  std::vector<SweepPointResult> points; ///< expansion order — every point, always
  std::vector<KernelFrontier> frontiers; ///< kernels in first-appearance order

  // Run accounting — measurement, not output; exempt from determinism and
  // excluded from toJson(false).
  int workers = 1;
  double wallMs = 0;

  int okCount() const;
  int failedCount() const;
  /// "10 ok, 1 internal-error, 1 sim-error" — zero-count outcomes omitted.
  std::string outcomeSummary() const;

  /// The versioned JSON report ("schema": "roccc-sweep-v1"). With
  /// includeTimings false (the default and the determinism contract) the
  /// document is a pure function of (grid, SweepOptions); true adds the
  /// per-point compileMs and a "run" block (workers, wallMs).
  json::Value toJson(bool includeTimings = false) const;
  /// Per-kernel metric table, Pareto points starred.
  std::string table() const;
  /// The "best config per kernel" report.
  std::string bestReport() const;
};

/// Runs every point: batch compile, per-point metric collection, per-kernel
/// frontier + best-config computation.
SweepResult runSweep(const std::vector<SweepPoint>& points, const SweepOptions& opt);
SweepResult runSweep(const SweepGrid& grid, const SweepOptions& opt);

/// Re-verifies every Pareto-optimal point through 5-way differential
/// conformance (and, per opt.checkTestbench, its system testbench). Points
/// are recompiled, since a SweepResult keeps no IR, and run in the point's
/// system geometry (bus elements, smart buffer), which replaces
/// opt.system's. Verdicts come back in frontier order, labeled by point. A
/// sweep whose frontier fails this
/// must not be trusted; roccc-explore --verify-pareto exits nonzero.
VerifyReport verifyFrontier(const SweepResult& sweep, const VerifyOptions& opt);

} // namespace roccc
