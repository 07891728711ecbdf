#include "roccc/compiler.hpp"

#include <climits>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/transforms.hpp"
#include "mir/lower.hpp"
#include "mir/passes.hpp"
#include "mir/ssa.hpp"
#include "rtl/from_dp.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "vhdl/emit.hpp"
#include "vhdl/verilog.hpp"

namespace roccc {

const char* compileOutcomeName(CompileOutcome outcome) {
  switch (outcome) {
    case CompileOutcome::Ok: return "ok";
    case CompileOutcome::FrontendError: return "frontend-error";
    case CompileOutcome::Timeout: return "timeout";
    case CompileOutcome::ResourceExceeded: return "resource-exceeded";
    case CompileOutcome::InternalError: return "internal-error";
  }
  return "?";
}

namespace {

/// Callees whose argument has more bits than this stay calls (and are
/// inlined) instead of becoming lookup tables.
constexpr int kLutMaxIndexBits = 10;
/// Trip-count cap for fully unrolling loops nested in the streaming loop.
constexpr int64_t kMaxInnerUnrollTrip = 256;

/// Number of instructions across all MIR blocks (pass counter helper).
int64_t mirInstrCount(const mir::FunctionIR& f) {
  int64_t n = 0;
  for (const auto& b : f.blocks) n += static_cast<int64_t>(b.instrs.size());
  return n;
}

int64_t mirPhiCount(const mir::FunctionIR& f) {
  int64_t n = 0;
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.op == mir::Opcode::Phi) ++n;
    }
  }
  return n;
}

} // namespace

PassManager Compiler::buildPipeline() const {
  const CompileOptions& opts = options_;
  PassManager pm(opts.pipeline);

  // --- front end --------------------------------------------------------------
  pm.addPass({"parse", PassLayer::Frontend,
              [](PassContext& ctx, PassStatistics& st) {
                ctx.module = ast::parse(ctx.source, ctx.diags());
                if (ctx.diags().hasErrors()) return false;
                if (!ast::analyze(ctx.module, ctx.diags())) return false;
                ctx.kernelName = ctx.options.kernelName;
                if (ctx.kernelName.empty()) {
                  if (ctx.module.functions.empty()) {
                    ctx.diags().error({}, "no functions in the module");
                    return false;
                  }
                  ctx.kernelName = ctx.module.functions.back().name;
                }
                if (!ctx.kernel()) {
                  ctx.diags().error({}, fmt("no kernel named '%0'", ctx.kernelName));
                  return false;
                }
                st.add("functions", static_cast<int64_t>(ctx.module.functions.size()));
                return true;
              }});

  // --- loop-level transforms (section 2 / 4.1) ----------------------------------
  // "Function calls will either be inlined or whenever feasible made into a
  // lookup table" (section 2): lookup-table conversion gets first pick —
  // feasible pure unary callees become ROMs, everything left is inlined.
  pm.addPass({"lut-convert", PassLayer::Hlir,
              [](PassContext& ctx, PassStatistics& st) {
                const int luts = hlir::convertCallsToLookupTables(ctx.module, ctx.diags(),
                                                                  kLutMaxIndexBits);
                st.add("lut-converted", luts);
                return !ctx.diags().hasErrors();
              },
              opts.convertCallsToLuts});
  pm.addPass({"inline", PassLayer::Hlir, [](PassContext& ctx, PassStatistics& st) {
                st.add("inlined", hlir::inlineCalls(ctx.module, ctx.diags()));
                return !ctx.diags().hasErrors();
              }});
  pm.addPass({"const-fold", PassLayer::Hlir, [](PassContext& ctx, PassStatistics& st) {
                st.add("folded", hlir::constantFold(ctx.module, ctx.diags()));
                return !ctx.diags().hasErrors();
              }});
  pm.addPass({"fuse-loops", PassLayer::Hlir, [](PassContext& ctx, PassStatistics& st) {
                st.add("fused", hlir::fuseAdjacentLoops(ctx.module, *ctx.kernel(), ctx.diags()));
                return !ctx.diags().hasErrors();
              }});
  pm.addPass({"unroll-inner-full", PassLayer::Hlir,
              [](PassContext& ctx, PassStatistics& st) {
                st.add("inner-unrolled",
                       hlir::fullyUnrollInnerLoops(ctx.module, *ctx.kernel(), ctx.diags(),
                                                   kMaxInnerUnrollTrip));
                return !ctx.diags().hasErrors();
              },
              opts.fullUnrollInnerLoops});
  pm.addPass({"unroll", PassLayer::Hlir, [](PassContext& ctx, PassStatistics& st) {
                faultpoint("hlir.unroll");
                const int unrollFactor = ctx.options.unrollFactor;
                if (unrollFactor > 1 &&
                    !hlir::unrollInnerLoop(ctx.module, *ctx.kernel(), unrollFactor, ctx.diags())) {
                  return false;
                }
                st.add("unroll-factor", unrollFactor);
                return true;
              }});

  // --- kernel extraction (section 4.1 / 4.2.1) ------------------------------------
  pm.addPass({"extract-kernel", PassLayer::Hlir, [](PassContext& ctx, PassStatistics& st) {
                if (!hlir::extractKernel(ctx.module, ctx.kernelName, ctx.result.kernel,
                                         ctx.diags())) {
                  return false;
                }
                st.add("input-streams", static_cast<int64_t>(ctx.result.kernel.inputs.size()));
                st.add("output-streams", static_cast<int64_t>(ctx.result.kernel.outputs.size()));
                st.add("feedbacks", static_cast<int64_t>(ctx.result.kernel.feedbacks.size()));
                return true;
              }});

  // --- back end (section 4.2) -----------------------------------------------------
  pm.addPass({"lower-mir", PassLayer::Mir, [](PassContext& ctx, PassStatistics& st) {
                if (!mir::lowerToMir(ctx.result.kernel.dpModule, ctx.result.kernel.dpName,
                                     ctx.result.mir, ctx.diags())) {
                  return false;
                }
                st.add("blocks", static_cast<int64_t>(ctx.result.mir.blocks.size()));
                st.add("instrs", mirInstrCount(ctx.result.mir));
                return true;
              }});
  pm.addPass({"canonicalize-effects", PassLayer::Mir, [](PassContext& ctx, PassStatistics& st) {
                mir::canonicalizeSideEffects(ctx.result.mir);
                st.add("instrs", mirInstrCount(ctx.result.mir));
                return true;
              }});
  Pass ssaPass{"ssa-build", PassLayer::Mir, [](PassContext& ctx, PassStatistics& st) {
                 mir::buildSSA(ctx.result.mir);
                 ctx.mirInSSA = true;
                 st.add("phis", mirPhiCount(ctx.result.mir));
                 return true;
               }};
  ssaPass.alwaysVerify = true;
  pm.addPass(std::move(ssaPass));
  Pass optPass{"mir-optimize", PassLayer::Mir, [](PassContext& ctx, PassStatistics& st) {
                 const auto s = mir::runStandardPasses(ctx.result.mir);
                 st.add("rounds", s.rounds);
                 st.add("constprop", s.constProp);
                 st.add("copyprop", s.copyProp);
                 st.add("strength", s.strength);
                 st.add("cse", s.cse);
                 st.add("dce", s.dce);
                 return true;
               }};
  optPass.enabled = opts.optimize;
  // The data-path generator requires valid SSA: verify even without
  // --verify-each (the legacy driver's unconditional post-pass check).
  optPass.alwaysVerify = true;
  pm.addPass(std::move(optPass));

  // Data-path construction with latch placement priced on the compile's
  // timing model (the built-in table unless --timing-model overrides it).
  pm.addPass({"build-datapath", PassLayer::Dp, [](PassContext& ctx, PassStatistics& st) {
                synth::TimingModel storage;
                std::string parseError;
                const synth::TimingModel* model = synth::TimingModel::resolve(
                    ctx.options.timingModelSpec, storage, parseError);
                if (!model) {
                  ctx.diags().error({}, "timing-model: " + parseError);
                  return false;
                }
                if (!dp::buildDataPath(ctx.result.mir, *model, ctx.result.datapath, ctx.diags(),
                                       ctx.options.dpOptions)) {
                  return false;
                }
                const auto& d = ctx.result.datapath;
                st.add("soft-nodes", d.softNodeCount);
                st.add("hard-nodes", d.hardNodeCount);
                st.add("stages", d.stageCount);
                st.add("narrowed-bits", d.narrowedBits);
                st.add("pipeline-register-bits", d.pipelineRegisterBits);
                st.add("mux-ops", d.muxOpCount);
                st.add("merges", d.timing.merges);
                st.add("moved-ops", d.timing.movedOps);
                st.add("worst-stage-ps", static_cast<int64_t>(d.timing.worstStageNs * 1000 + 0.5));
                st.add("fmax-khz", static_cast<int64_t>(d.timing.fmaxMHz * 1000 + 0.5));
                st.add("feasible", d.timing.feasible ? 1 : 0);
                return true;
              }});
  Pass rtlPass{"build-rtl", PassLayer::Rtl, [](PassContext& ctx, PassStatistics& st) {
                 if (!rtl::buildDatapathModule(ctx.result.datapath, ctx.result.module,
                                               ctx.diags())) {
                   return false;
                 }
                 st.add("cells", static_cast<int64_t>(ctx.result.module.cells.size()));
                 st.add("nets", static_cast<int64_t>(ctx.result.module.nets.size()));
                 st.add("register-bits", ctx.result.module.registerBits());
                 return true;
               }};
  // The generated netlist is verified on every compile, not just in test
  // helpers; failures surface as internal errors through the DiagEngine.
  rtlPass.alwaysVerify = true;
  pm.addPass(std::move(rtlPass));

  // --- VHDL / Verilog (section 4.2.4) -----------------------------------------------
  pm.addPass({"emit-vhdl", PassLayer::Vhdl, [](PassContext& ctx, PassStatistics& st) {
                ctx.result.vhdl =
                    vhdl::emitDesign(ctx.result.datapath, ctx.result.module, ctx.result.kernel);
                st.add("bytes", static_cast<int64_t>(ctx.result.vhdl.size()));
                return true;
              }});
  pm.addPass({"emit-verilog", PassLayer::Vhdl,
              [](PassContext& ctx, PassStatistics& st) {
                ctx.result.verilog = verilog::emitDesign(ctx.result.datapath, ctx.result.kernel);
                st.add("bytes", static_cast<int64_t>(ctx.result.verilog.size()));
                return true;
              },
              opts.emitVerilog});
  return pm;
}

synth::EstimateOptions estimateOptionsFor(const CompileOptions& options,
                                          const synth::TimingModel& model) {
  synth::EstimateOptions eo = synth::EstimateOptions::forModel(model);
  eo.useMult18 = options.dpOptions.multStyle == dp::BuildOptions::MultStyle::Mult18;
  return eo;
}

namespace {

/// One run of `pm` over `source` with `options`, metered by the job's
/// `budget`.
CompileResult runPipeline(const PassManager& pm, const CompileOptions& options,
                          const std::string& source, CompileBudget& budget) {
  CompileResult r;
  PassContext ctx(options, r);
  ctx.source = source;
  ctx.budget = &budget;
  pm.run(ctx, r.passLog);
  if (r.outcome == CompileOutcome::Ok && r.diags.hasErrors()) {
    r.outcome = CompileOutcome::FrontendError;
  }
  r.ok = r.outcome == CompileOutcome::Ok;
  return r;
}

/// Area-budget-driven unrolling (section 2, ref [13]): compiles at unroll
/// 1, 2, 4, ... and returns the last compile whose synth::estimate fits
/// options.autoUnrollSliceBudget (unroll 1 when even that does not fit).
/// The factor doubles only while it divides the trip count of the loop the
/// unroll pass widens, the unroll-1 compile's innermost loop. Every probe
/// is priced, none extrapolated, so the choice assumes nothing about how
/// area grows with the factor. The returned pass log keeps the returned
/// compile's counters, but each pass's wallMs is that pass's time summed
/// over every probe, so the log accounts for the whole search.
CompileResult compileWithinSliceBudget(const PassManager& pm, const CompileOptions& options,
                                       const std::string& source, CompileBudget& budget) {
  // Every run's log is a prefix of pm's pass list, so entry i of any log
  // is the same pass; spentMs[i] sums its time over the runs so far.
  std::vector<double> spentMs;
  const auto run = [&](const CompileOptions& o) {
    CompileResult r = runPipeline(pm, o, source, budget);
    if (spentMs.size() < r.passLog.size()) spentMs.resize(r.passLog.size(), 0.0);
    for (size_t i = 0; i < r.passLog.size(); ++i) spentMs[i] += r.passLog[i].wallMs;
    return r;
  };
  const auto finish = [&](CompileResult r) {
    for (size_t i = 0; i < r.passLog.size(); ++i) r.passLog[i].wallMs = spentMs[i];
    return r;
  };
  CompileOptions probe = options;
  probe.unrollFactor = 1;
  CompileResult best = run(probe);
  if (!best.ok || best.kernel.loops.empty()) return best;
  // build-datapath resolved the same spec, so this cannot fail.
  synth::TimingModel storage;
  std::string error;
  const synth::EstimateOptions eo = estimateOptionsFor(
      options, *synth::TimingModel::resolve(options.timingModelSpec, storage, error));
  const auto fits = [&](const CompileResult& r) {
    return synth::estimate(r.module, eo).slices <= options.autoUnrollSliceBudget;
  };
  if (!fits(best)) return best;
  const int64_t trips = best.kernel.loops.back().trips();
  for (int64_t f = 2; f <= trips && trips % f == 0 && f <= INT_MAX; f *= 2) {
    // Each probe is its own design: the deadline runs on across the search,
    // the unroll-product cap bounds one design's expansion.
    budget.restartUnrollProduct();
    probe.unrollFactor = static_cast<int>(f);
    CompileResult r = run(probe);
    // A factor past one of the job's resource caps does not fit either;
    // any other failure (the deadline, an internal error) is the job's.
    if (r.outcome == CompileOutcome::ResourceExceeded || (r.ok && !fits(r))) break;
    if (!r.ok) return finish(std::move(r));
    best = std::move(r);
  }
  return finish(std::move(best));
}

} // namespace

CompileResult Compiler::compileSource(const std::string& cSource) const {
  // Per-job governance: the budget (deadline clock starts here) and any
  // armed fault point are installed into this thread's slots, so layer code
  // deep in the pipeline can checkpoint without threading a handle through
  // every signature. Each batch job runs wholly on one worker thread, and
  // every compile an auto-unroll search makes runs under these two scopes.
  CompileBudget budget(options_.budget);
  BudgetScope budgetScope(&budget);
  FaultInjectionScope faultScope(options_.injectFaultAt);

  try {
    const PassManager pm = buildPipeline();
    return options_.autoUnrollSliceBudget > 0
               ? compileWithinSliceBudget(pm, options_, cSource, budget)
               : runPipeline(pm, options_, cSource, budget);
  } catch (const std::exception& e) {
    // Belt over the pass-edge suspenders: nothing should escape
    // PassManager::run, but a throw from pipeline construction itself must
    // still come out as a structured outcome, not a dead process.
    CompileResult r;
    r.outcome = CompileOutcome::InternalError;
    r.diags.error({}, fmt("internal: unhandled exception outside the pass boundary: %0", e.what()));
    return r;
  }
}

} // namespace roccc
