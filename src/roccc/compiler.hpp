// roccc::Compiler — the public facade of the library.
//
// Runs the full ROCCC pipeline of the paper on one C kernel:
//   parse -> sema -> loop transforms (inline, LUT-convert, const-fold,
//   unroll) -> kernel extraction (scalar replacement, feedback detection,
//   access patterns) -> MIR lowering -> SSA -> circuit-level passes ->
//   data-path generation (mux/pipe hard nodes, pipelining, bit-width
//   inference) -> RTL netlist -> VHDL.
//
// Use verifyKernel() (roccc/verify.hpp) to execute the generated hardware
// against the software interpreter, and synth::estimate() (src/synth) to
// obtain the Table 1-style clock/area figures.
#pragma once

#include <string>
#include <vector>

#include "dp/datapath.hpp"
#include "frontend/ast.hpp"
#include "hlir/kernel.hpp"
#include "mir/ir.hpp"
#include "roccc/pipeline.hpp"
#include "rtl/netlist.hpp"
#include "support/budget.hpp"
#include "support/diag.hpp"
#include "synth/estimate.hpp"

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
  /// When > 0, pick the unroll factor automatically (section 2, ref [13]):
  /// compile at unroll 1, 2, 4, ... and keep the largest factor whose
  /// synth::estimate fits this many slices and divides the unrolled loop's
  /// trip count. Overrides unrollFactor.
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
  /// Timing-model override: the *contents* of a --timing-model file (not
  /// its path, so a compile stays a pure function of (source, options) —
  /// the cache-key contract). Empty = the built-in Virtex-II-class table.
  std::string timingModelSpec;
  /// Also emit the design as Verilog (the `emit-verilog` pass; a library
  /// extension, the paper ships VHDL). Off = CompileResult::verilog stays
  /// empty and the pass is recorded as skipped.
  bool emitVerilog = false;
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
  hlir::KernelInfo kernel;
  mir::FunctionIR mir;
  dp::DataPath datapath; ///< its `timing` is the stage-timing report
  rtl::Module module;
  std::string vhdl; ///< generated RTL VHDL (all entities)
  /// SHA-256 hex of `vhdl`, or empty when no producer computed it. The
  /// compiler never fills it; the daemon does once per artifact, and the
  /// cache carries it so hits replay it instead of re-hashing.
  std::string vhdlSha256;
  std::string verilog; ///< generated Verilog; empty unless options.emitVerilog
  /// One typed record per pipeline pass (name, layer, wall time, change
  /// counters, optional IR snapshot) — see roccc/pipeline.hpp.
  std::vector<PassStatistics> passLog;
};

/// The estimate options that price a compile as it was built: `model` (the
/// compile's resolved timing model) and variable multipliers in the
/// compile's multiplier style.
synth::EstimateOptions estimateOptionsFor(const CompileOptions& options,
                                          const synth::TimingModel& model);

class Compiler {
 public:
  explicit Compiler(CompileOptions options = {}) : options_(std::move(options)) {}

  /// Compiles C source text end to end. With autoUnrollSliceBudget set, one
  /// job runs several compiles under one budget and returns the chosen one.
  CompileResult compileSource(const std::string& cSource) const;

  /// The declared pass sequence compileSource runs: parse, the HLIR loop
  /// transforms, kernel extraction, MIR lowering/SSA/optimization,
  /// data-path construction, RTL build (always verified), VHDL emission
  /// and, when options.emitVerilog is set, Verilog emission. Exposed so
  /// tools and tests can inspect, reorder, or extend the pipeline.
  PassManager buildPipeline() const;

  const CompileOptions& options() const { return options_; }

 private:
  CompileOptions options_;
};

} // namespace roccc
