// roccc::Compiler — the public facade of the library.
//
// Runs the full ROCCC pipeline of the paper on one C kernel:
//   parse -> sema -> loop transforms (inline, LUT-convert, const-fold,
//   unroll) -> kernel extraction (scalar replacement, feedback detection,
//   access patterns) -> MIR lowering -> SSA -> circuit-level passes ->
//   data-path generation (mux/pipe hard nodes, pipelining, bit-width
//   inference) -> RTL netlist -> VHDL.
//
// Use rtl::System / cosimulate() to execute the generated hardware against
// the software interpreter, and synth::estimate() (src/synth) to obtain the
// Table 1-style clock/area figures.
#pragma once

#include <string>
#include <vector>

#include "dp/datapath.hpp"
#include "dp/retime.hpp"
#include "frontend/ast.hpp"
#include "hlir/kernel.hpp"
#include "interp/interp.hpp"
#include "mir/ir.hpp"
#include "roccc/pipeline.hpp"
#include "rtl/netlist.hpp"
#include "rtl/system.hpp"
#include "support/budget.hpp"
#include "support/diag.hpp"

namespace roccc {

/// How a compile ended. Every failure mode is a structured outcome — a job
/// can fail, a batch cannot crash (the fault-containment boundary at the
/// PassManager pass edge converts thrown BudgetExceeded / std::bad_alloc /
/// internal errors into the non-Ok rows here; DESIGN.md §9).
enum class CompileOutcome {
  Ok,               ///< compiled end to end
  FrontendError,    ///< the input was rejected with diagnostics
  Timeout,          ///< the per-job wall-clock deadline fired
  ResourceExceeded, ///< an IR-node / unroll-product / depth budget or memory
  InternalError,    ///< a compiler invariant broke (contained, not crashed)
};
const char* compileOutcomeName(CompileOutcome outcome);

struct CompileOptions {
  /// Kernel function to compile; empty = the module's last function.
  std::string kernelName;
  /// Partial unroll factor for the innermost streaming loop (1 = none).
  /// Widening the data path this way is how the DCT processes a full
  /// 8-sample block per clock (section 5).
  int unrollFactor = 1;
  /// When > 0, pick the unroll factor automatically: the largest
  /// power-of-two whose compile-time area estimate (ref [13]) fits this
  /// many slices. Overrides unrollFactor.
  int64_t autoUnrollSliceBudget = 0;
  /// Fully unroll loops nested inside the streaming loop (bit_correlator's
  /// per-bit scan, square root's digit recurrence, ...).
  bool fullUnrollInnerLoops = true;
  /// Convert pure unary callees into lookup tables ("whenever feasible made
  /// into a lookup table", section 2).
  bool convertCallsToLuts = true;
  /// Run the circuit-level scalar optimizations (constant propagation,
  /// copy propagation, CSE, DCE, strength reduction).
  bool optimize = true;
  /// Data-path generation knobs (pipelining target, bit-width inference,
  /// multiplier style).
  dp::BuildOptions dpOptions;
  /// Timing-driven pipeline balancing (the `retime` pass): rebalance the
  /// greedy seed staging against the timing model so every stage fits
  /// dpOptions.targetStageDelayNs with slack spread evenly. Off = keep the
  /// fixed greedy staging (the pre-retiming behavior; ablation knob).
  bool retimePipeline = true;
  /// Timing-model override: the *contents* of a --timing-model file (not
  /// its path, so a compile stays a pure function of (source, options) —
  /// the cache-key contract). Empty = the built-in Virtex-II-class table.
  std::string timingModelSpec;
  /// Pipeline instrumentation: verify-each, print-after snapshots.
  PipelineOptions pipeline;
  /// Per-job resource budget (deadline, IR-node cap, unroll-product cap,
  /// nesting-depth cap). Defaults are unlimited except the depth cap.
  BudgetLimits budget;
  /// Fault-injection arming: the faultpoint name (see
  /// support/faultpoint.hpp) to throw at, or empty for none.
  std::string injectFaultAt;
};

struct CompileResult {
  bool ok = false;
  /// Structured classification of how the compile ended; `ok` is
  /// outcome == Ok. Never Ok when diagnostics carry errors.
  CompileOutcome outcome = CompileOutcome::Ok;
  /// The pass that failed (or inside which a contained exception was
  /// caught); empty on success and for failures outside the pipeline.
  std::string failedPass;
  DiagEngine diags;
  /// Transformed-source module (after inlining/unrolling), for inspection.
  std::string transformedSource;
  hlir::KernelInfo kernel;
  mir::FunctionIR mir;
  dp::DataPath datapath;
  /// Timing report of the retime pass (run == false when the pass was
  /// disabled or the compile failed before it).
  dp::RetimeReport retiming;
  rtl::Module module;
  std::string vhdl; ///< generated RTL VHDL (all entities)
  /// SHA-256 hex of `vhdl`, or empty when no producer computed it. The
  /// compiler never fills it; the daemon does once per artifact, and the
  /// cache carries it so hits replay it instead of re-hashing.
  std::string vhdlSha256;
  std::string verilog; ///< generated Verilog (library extension)
  /// One typed record per pipeline pass (name, layer, wall time, change
  /// counters, optional IR snapshot) — see roccc/pipeline.hpp.
  std::vector<PassStatistics> passLog;
};

class Compiler {
 public:
  explicit Compiler(CompileOptions options = {}) : options_(std::move(options)) {}

  /// Compiles C source text end to end.
  CompileResult compileSource(const std::string& cSource) const;

  /// The declared pass sequence compileSource runs: parse, the HLIR loop
  /// transforms, kernel extraction, MIR lowering/SSA/optimization,
  /// data-path construction, RTL build (always verified), and VHDL /
  /// Verilog emission. Exposed so tools and tests can inspect, reorder, or
  /// extend the pipeline.
  PassManager buildPipeline() const;

  const CompileOptions& options() const { return options_; }

 private:
  CompileOptions options_;
};

/// Hardware/software cosimulation: runs the compiled kernel both on the
/// cycle-accurate RTL system and through the AST interpreter on the
/// original source, and compares every output. The netlist engine is chosen
/// by sysOptions.engine (rtl::SimEngine, default Fast); NetlistSim remains
/// the reference oracle.
struct CosimReport {
  bool match = false;
  std::string mismatch; ///< first difference, empty when match
  rtl::SystemStats stats;
  interp::KernelIO hardware;
  interp::KernelIO software;
};

CosimReport cosimulate(const CompileResult& compiled, const std::string& originalSource,
                       const interp::KernelIO& inputs, rtl::SystemOptions sysOptions = {});

} // namespace roccc
