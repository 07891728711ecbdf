// FastSim: a compiled, slot-indexed netlist simulation engine.
//
// NetlistSim (rtl/netlist.hpp) is the readable reference: it re-dispatches
// on CellKind per cell per cycle and moves boxed Values through vectors.
// FastSim flattens a Module once, at construction, into a compact
// instruction stream — precomputed topological order, inline operand slot
// indices, per-net masks and sign-extension shifts — and executes it on raw
// uint64_t lanes. It also simulates *batches*: N independent input streams
// advance per eval()/tick() pass in a structure-of-arrays layout, so
// cosimulating a whole test-vector set costs one sweep of the instruction
// stream per cycle instead of N sequential runs.
//
// FastSim is locked to NetlistSim bit-for-bit by tests/fastsim_diff_test.cpp;
// NetlistSim stays as the oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "rtl/netlist.hpp"
#include "support/value.hpp"

namespace roccc::rtl {

/// Which cycle-accurate engine executes a Module.
///  - Reference: NetlistSim, the boxed-Value oracle.
///  - Fast: FastSim, the compiled slot-indexed engine (default).
enum class SimEngine { Reference, Fast };

const char* simEngineName(SimEngine e);

class FastSim {
 public:
  /// Compiles `m` for `batch` independent simulation lanes. The Module must
  /// outlive the simulator (ROM tables are referenced, not copied).
  explicit FastSim(const Module& m, int batch = 1);

  int batch() const { return batch_; }

  /// Drives an input port for the current cycle on one lane.
  void setInput(size_t port, const Value& v, int lane = 0);
  /// Same, from a signed integer (wraps modulo 2^width like Value::fromInt).
  void setInputInt(size_t port, int64_t v, int lane = 0);
  /// Propagates combinational logic on every lane.
  void eval();
  /// Clock edge on every lane: registers latch when `enable` is true (and
  /// the optional per-register clock-enable input is high on that lane).
  void tick(bool enable);
  /// Reads an output port on one lane (call after eval()).
  Value output(size_t port, int lane = 0) const;
  /// Reads any net on one lane (testing/debug).
  Value netValue(int net, int lane = 0) const;
  /// Resets registers to their initial values on every lane.
  void reset();

 private:
  // One opcode per evaluation recipe. Gt/Ge reuse Lt/Le with swapped
  // operands; signed/unsigned compare split is resolved at compile time.
  enum class Op : uint8_t {
    Add, Sub, Mul, Neg,
    And, Or, Xor, Not,
    Shl, Shr,
    Eq, Ne, LtS, LtU, LeS, LeU,
    Mux, Rom, Slice, Concat, Resize,
  };

  /// Zero-extended operands use shift 0: the storage is already masked, so
  /// an arithmetic shift by zero is the identity and the sext hot path
  /// stays branchless.
  static constexpr uint8_t kNoSx = 0;

  /// 40 bytes: the whole instruction stream of a Table 1 module stays
  /// resident in L1 while the per-cycle loop sweeps it.
  struct Instr {
    Op op;
    uint8_t sxa = kNoSx, sxb = kNoSx, sxc = kNoSx; ///< sign-extension shifts
    int32_t dst = 0, a = 0, b = 0, c = 0; ///< lane-array base offsets
    uint64_t mask = ~uint64_t{0};         ///< result mask (2^width - 1)
    int32_t aux = 0; ///< Slice shift / Concat lo width / Rom table index
    bool flag = false; ///< Shr: signed operand
  };

  struct RomTable {
    const int64_t* data = nullptr;
    int64_t size = 0;
  };

  struct RegInfo {
    int32_t dst = 0, d = 0, en = -1; ///< lane-array base offsets (en<0: none)
    uint8_t sxd = kNoSx;             ///< sign-extension shift of the d input
    uint64_t mask = ~uint64_t{0};
    uint64_t init = 0;
  };

  int32_t slot(int net) const { return static_cast<int32_t>(net) * batch_; }

  /// The eval loop, specialized on the lane count (BN == 0: runtime batch_).
  /// Batch 1 — the System's cosimulation path — compiles with the inner
  /// lane loops folded away.
  template <int BN> void evalImpl();
  /// The clock edge, specialized the same way.
  template <int BN> void tickImpl();

  const Module& m_;
  int batch_;
  std::vector<Instr> prog_;       ///< combinational cells, topological order
  std::vector<RomTable> roms_;    ///< Rom cell tables, indexed by Instr::aux
  std::vector<RegInfo> regs_;
  std::vector<uint64_t> lanes_;   ///< net values, net-major: [net*batch + lane]
  std::vector<uint64_t> regState_;///< register state,       [reg*batch + lane]
};

} // namespace roccc::rtl
