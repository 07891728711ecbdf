// Data-path generation (paper sections 4.2.2 - 4.2.4).
//
// Takes the SSA-form MIR of the data-path function and produces the fully
// pipelined data-path graph:
//  - one "soft node" per CFG basic block ("the compiler first builds data
//    path for each non-null node in the CFG"),
//  - a MUX hard node per alternative-branch join ("a new mux node between
//    alternative branch nodes and their common successor", Fig 6 node 7),
//  - a PIPE hard node copying live variables past the branch arms (Fig 6
//    node 6),
//  - pipeline latch placement driven by per-instruction delay estimation
//    (section 4.2.3), priced on the compile's synth::TimingModel, with the
//    SNX feedback register closing the LPR loop inside a single stage so the
//    pipeline sustains one iteration per clock,
//  - bit-width inference for every internal signal from port sizes and
//    opcodes (sections 4.2.4, 5).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mir/ir.hpp"
#include "support/diag.hpp"
#include "support/range.hpp"
#include "synth/timing.hpp"

namespace roccc::dp {

enum class NodeKind { Soft, Mux, Pipe };

/// A value (wire bundle) in the data path. Every op result and every input
/// port is a value; SSA guarantees single definition.
struct DpValue {
  int id = -1;
  ScalarType declared;   ///< semantic type (C-level)
  int width = 32;        ///< inferred hardware width (<= declared width)
  bool isSigned = true;  ///< inferred signedness
  ValueRange range;      ///< inferred value range
  std::string name;      ///< debug name
  int def = -1;          ///< defining op (-1: input port or constant-free)
  int inputPort = -1;    ///< >= 0 when this value is an input port
};

/// An operation placed in the data path.
struct DpOp {
  mir::Opcode op = mir::Opcode::Mov;
  int result = -1;            ///< value id (-1 for Out/Snx)
  std::vector<int> operands;  ///< value ids
  int64_t imm = 0;
  int aux0 = 0, aux1 = 0;
  std::string symbol;
  int node = -1;  ///< owning DpNode
  int stage = 0;  ///< pipeline stage (0-based)
  double pathDelayNs = 0; ///< accumulated combinational delay within stage
};

struct DpNode {
  int id = -1;
  NodeKind kind = NodeKind::Soft;
  int cfgBlock = -1; ///< originating MIR block (-1 for hard nodes)
  std::vector<int> ops;
  std::string label;
};

/// Timing of the placed stages on the compile's timing model. buildDataPath
/// fills it on every compile, pipelined or not.
struct StageTiming {
  double targetNs = 0;       ///< the per-stage budget (--target-ns)
  int merges = 0;            ///< adjacent stage pairs fused after the greedy cut
  int movedOps = 0;          ///< balance moves accepted
  double worstStageNs = 0;   ///< max per-stage combinational delay
  double criticalPathNs = 0; ///< worstStageNs + model clock overhead
  double fmaxMHz = 0;        ///< 1000 / criticalPathNs
  double slackNs = 0;        ///< targetNs - worstStageNs (negative: missed)
  /// True when the budget is achievable at all: no single primitive (or
  /// unsplittable feedback cone) exceeds targetNs, and with pipelining off
  /// the one stage fits. Whenever feasible, worstStageNs <= targetNs.
  bool feasible = true;
  std::vector<double> stageDelayNs; ///< per-stage combinational delay
};

struct DataPath {
  std::string name;
  std::vector<DpNode> nodes;
  std::vector<DpOp> ops;
  std::vector<DpValue> values;

  struct Port {
    std::string name;
    ScalarType type;
    int value = -1; ///< input: the port's value; output: the driven value
  };
  std::vector<Port> inputs;
  std::vector<Port> outputs;
  /// Stage at which each output is produced (outputs are registered at the
  /// end of that stage).
  std::vector<int> outputStage;

  struct Feedback {
    std::string name;
    ScalarType type;
    int64_t initial = 0;
    int snxValue = -1; ///< value stored to the register each iteration
    int lprValue = -1; ///< value read from the register (one per name)
    int stage = 0;     ///< feedback loop stage
  };
  std::vector<Feedback> feedbacks;
  std::vector<mir::FunctionIR::Table> tables;

  int stageCount = 1;
  StageTiming timing;

  // --- statistics (drive reports and the Table 1 area discussion) ---
  int softNodeCount = 0;
  int hardNodeCount = 0; ///< mux + pipe nodes
  int muxOpCount = 0;
  /// Register bits inserted to keep definitions and references adjoining
  /// across stages ("extra register copying instructions", section 4.2.2) —
  /// a value defined in stage s and last used in stage t holds t-s register
  /// copies of its width.
  int64_t balanceRegisterBits = 0;
  /// Total latched bits at stage boundaries (including balance registers).
  int64_t pipelineRegisterBits = 0;
  /// Width narrowing achieved by inference: sum over values of
  /// (declared width - inferred width).
  int64_t narrowedBits = 0;

  std::string dump() const;
  /// Graphviz-style structural dump used by the Fig 6 bench.
  std::string dumpStructure() const;
};

struct BuildOptions {
  /// Target combinational delay per pipeline stage. Latches are placed so
  /// no stage exceeds it (except a feedback loop that cannot be split),
  /// then adjacent stages that fit it together are merged and boundary ops
  /// moved to lower the worst stage.
  double targetStageDelayNs = 4.0;
  bool pipeline = true;        ///< place latches (off: single stage)
  /// How internal signals are narrowed:
  ///  - Declared: not at all; every signal keeps its declared C width.
  ///  - PortOpcode: the paper's rule (section 5, "we derive bit width only
  ///    based on port size and opcodes") — forward structural propagation
  ///    (add -> max+1, mul -> sum, ...), no value information.
  ///  - RangeAnalysis: interval analysis over value ranges — the "more
  ///    aggressive bit narrowing" the paper anticipates. Default, and what
  ///    the rest of this library was validated with.
  enum class WidthMode { Declared, PortOpcode, RangeAnalysis } widthMode =
      WidthMode::RangeAnalysis;
  /// 'LUT' multiplier style decomposes constant multiplies into shift-adds
  /// (the Table 1 FIR/DCT setting); 'Mult18' keeps hardware multipliers.
  enum class MultStyle { Lut, Mult18 } multStyle = MultStyle::Lut;
};

/// The synth::TimingModel primitive implementing a mir opcode at the given
/// multiplier style. False for wiring-only / control opcodes (zero delay).
bool primitiveForOpcode(mir::Opcode op, BuildOptions::MultStyle style, synth::Primitive& out);

/// Per-op combinational delay estimate (ns) used for latch placement,
/// looked up from the given timing model. Exposed for tests and the
/// synthesis model. Shl/Shr with width 0 signal a constant shift (free).
double opDelayNs(const synth::TimingModel& model, mir::Opcode op, int width,
                 BuildOptions::MultStyle style);

/// Placed delay of one op (ns): operand-aware width selection (comparisons
/// span their operands, constant shift amounts are free wiring) plus the
/// model's per-hop routing margin. The unit the stage budget is spent on.
double timedOpDelayNs(const DataPath& d, const DpOp& o, const synth::TimingModel& model,
                      BuildOptions::MultStyle style);

/// Multiplier and shift that divide by a constant (Granlund & Montgomery,
/// "Division by Invariant Integers using Multiplication", PLDI 1994).
struct DivisionMagic {
  uint64_t m = 0; ///< 0: every quotient on the range is 0
  int k = 0;

  friend bool operator==(const DivisionMagic&, const DivisionMagic&) = default;
};

/// The narrowest exact pair for trunc(x / divisor) over every x in
/// `dividend`: the smallest k, with m = ceil(2^k / divisor), such that
/// floor(x·m / 2^k) is the quotient of every x >= 0 and floor(x·m / 2^k) + 1
/// that of every x < 0. A power of two 2^s gives (1, s); its negative
/// dividends are biased by divisor - 1 before the shift instead. Nullopt
/// when |x|·m may reach 2^63. Requires divisor >= 1.
std::optional<DivisionMagic> divisionMagic(const ValueRange& dividend, uint64_t divisor);

/// Topological order of d.ops over value dependencies. Throws
/// InternalCompilerError if the op graph has a combinational cycle.
std::vector<int> topoOrderOps(const DataPath& d);

/// Builds the data path from SSA MIR and places its pipeline latches,
/// pricing every op on `model`, and fills out.timing. Requires:
/// canonicalizeSideEffects ran before buildSSA; verifySSA holds. Returns
/// false on diagnosed failure.
bool buildDataPath(const mir::FunctionIR& fn, const synth::TimingModel& model, DataPath& out,
                   DiagEngine& diags, const BuildOptions& options = {});

} // namespace roccc::dp
