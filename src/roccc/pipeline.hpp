// PassManager — the declared compile pipeline (paper Fig 1: SUIF loop
// transforms -> Machine-SUIF/MIR passes -> data-path -> VHDL).
//
// Compiler::compileSource no longer hard-codes the stage sequence: every
// stage is a named Pass registered with a PassManager, which times each
// one, collects a typed PassStatistics record (the machine-readable
// replacement for the old free-text passLog), can dump the layer's IR
// after any pass (--print-after / --print-after-all), and can run the
// layer-appropriate verifier between passes (--verify-each; RTL and
// SSA-MIR construction verify unconditionally).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "frontend/ast.hpp"
#include "support/budget.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"

namespace roccc {

struct CompileOptions;
struct CompileResult;
namespace synth {
struct Report;
}

/// Which layer of the flow a pass operates on; selects the snapshot
/// printer and the between-pass verifier.
enum class PassLayer { Frontend, Hlir, Mir, Dp, Rtl, Vhdl };
const char* passLayerName(PassLayer layer);

/// One record per registered pass, produced by every PassManager::run.
struct PassStatistics {
  std::string name;
  PassLayer layer = PassLayer::Frontend;
  double wallMs = 0;
  /// False when the pass was registered but skipped (disabled by options).
  bool ran = false;
  /// Named change counters ("inlined", "folded", "narrowed-bits", ...),
  /// in insertion order.
  std::vector<std::pair<std::string, int64_t>> counters;
  /// IR dump taken after the pass when print-after requested it.
  std::string snapshot;

  void add(std::string key, int64_t value) { counters.emplace_back(std::move(key), value); }
  /// Counter by name; 0 when the pass never reported it.
  int64_t counter(const std::string& key) const;
};

/// The --stats-json document: {"passes": [{name, layer, wallMs, ran,
/// counters}, ...], "timing": {...}, "totalMs": ...}. The "timing" member
/// is `timing` (roccc-cc's timingToJson block) and is left out when null.
json::Value statsToJson(const std::vector<PassStatistics>& stats, json::Value timing = {});
/// The --stats-json "timing" block of a successful compile: the stage-delay
/// target, latch placement's report on `r.datapath` (stages, worst stage,
/// slack, feasibility) and the estimate `est` of `r.module` (critical path,
/// fmax, energy).
json::Value timingToJson(const CompileResult& r, double targetNs, const synth::Report& est);
/// The --time-passes table (one row per pass, slowest-aware column widths).
std::string statsToTable(const std::vector<PassStatistics>& stats);

/// Mutable state threaded through the pipeline. Owns the AST module and the
/// kernel *name*; the kernel pointer is re-resolved at every use so no pass
/// can observe a pointer invalidated by an earlier transform (the historic
/// stale-kernel-pointer hazard of the monolithic driver).
struct PassContext {
  const CompileOptions& options;
  CompileResult& result;
  std::string source;     ///< C source text being compiled
  ast::Module module;     ///< AST under transformation (filled by 'parse')
  std::string kernelName; ///< resolved by 'parse'; owned here, not a pointer
  bool mirInSSA = false;  ///< selects mir::verify vs verifySSA
  /// The job's resource budget; checkpointed at every pass boundary. Null
  /// when the caller runs the pipeline without governance.
  CompileBudget* budget = nullptr;

  PassContext(const CompileOptions& opts, CompileResult& res) : options(opts), result(res) {}

  /// Total live IR size across every layer (AST statements + expressions,
  /// MIR instructions, data-path ops/values, RTL cells + nets) — what the
  /// maxIrNodes budget meters at pass boundaries.
  int64_t irNodeCount() const;

  /// Fresh lookup of the kernel function — never hold the returned pointer
  /// across a pass boundary.
  ast::Function* kernel() { return module.findFunction(kernelName); }
  DiagEngine& diags();
};

struct Pass {
  std::string name;
  PassLayer layer = PassLayer::Frontend;
  /// Pass body. Returns false to stop the pipeline; the diagnostics engine
  /// carries the explanation.
  std::function<bool(PassContext&, PassStatistics&)> run;
  /// False: record the pass as skipped without running it (option gates).
  bool enabled = true;
  /// Verify this pass's layer even without verifyEach (invariants the next
  /// stage depends on: SSA validity, RTL structural soundness).
  bool alwaysVerify = false;
};

struct PipelineOptions {
  /// Run the layer-appropriate verifier after every pass that ran
  /// (mir::verify/verifySSA, rtl::Module::verify, vhdl::check).
  bool verifyEach = false;
  /// Capture an IR snapshot after every pass / the named passes into
  /// PassStatistics::snapshot.
  bool printAfterAll = false;
  std::vector<std::string> printAfter;
};

class PassManager {
 public:
  explicit PassManager(PipelineOptions options = {}) : options_(std::move(options)) {}

  void addPass(Pass p) { passes_.push_back(std::move(p)); }
  const std::vector<Pass>& passes() const { return passes_; }
  std::vector<std::string> passNames() const;

  /// Runs every enabled pass in registration order. Appends one record per
  /// registered pass (including skipped ones) to `stats`. Returns false on
  /// the first pass failure or verifier failure.
  bool run(PassContext& ctx, std::vector<PassStatistics>& stats) const;

 private:
  bool verifyAfter(const Pass& p, PassContext& ctx) const;
  std::string snapshotOf(const Pass& p, PassContext& ctx) const;
  bool wantsSnapshot(const std::string& passName) const;

  PipelineOptions options_;
  std::vector<Pass> passes_;
};

} // namespace roccc
