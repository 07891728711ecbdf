#include "roccc/compiler.hpp"

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
                int unrollFactor = ctx.options.unrollFactor;
                if (ctx.options.autoUnrollSliceBudget > 0) {
                  // Area-estimation-driven unrolling (section 2 / ref [13]):
                  // largest power-of-two factor whose estimated slice count
                  // fits the budget.
                  int64_t trips = 0;
                  ast::forEachStmt(*ctx.kernel()->body, [&](const ast::Stmt& s) {
                    if (s.kind == ast::StmtKind::For && trips == 0) {
                      const auto& f = static_cast<const ast::ForStmt&>(s);
                      const auto b = ast::evalConstant(*f.begin);
                      const auto e = ast::evalConstant(*f.end);
                      if (b && e && *e > *b) trips = (*e - *b + f.step - 1) / f.step;
                    }
                  });
                  if (trips > 1) {
                    unrollFactor = hlir::chooseUnrollFactor(*ctx.kernel(), trips,
                                                            ctx.options.autoUnrollSliceBudget);
                  }
                  st.add("trip-count", trips);
                }
                if (unrollFactor > 1 &&
                    !hlir::unrollInnerLoop(ctx.module, *ctx.kernel(), unrollFactor, ctx.diags())) {
                  return false;
                }
                st.add("unroll-factor", unrollFactor);
                ctx.result.transformedSource = ast::printModule(ctx.module);
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

  pm.addPass({"build-datapath", PassLayer::Dp, [](PassContext& ctx, PassStatistics& st) {
                if (!dp::buildDataPath(ctx.result.mir, ctx.result.datapath, ctx.diags(),
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
                return true;
              }});
  // Timing-driven pipeline balancing: re-stage the data path against the
  // (possibly overridden) synth::TimingModel, merge under-full stages and
  // spread slack so the worst stage — hence achieved fmax — improves over
  // the greedy seed placement.
  Pass retimePass{"retime", PassLayer::Dp, [](PassContext& ctx, PassStatistics& st) {
                    synth::TimingModel storage;
                    std::string parseError;
                    const synth::TimingModel* model = synth::TimingModel::resolve(
                        ctx.options.timingModelSpec, storage, parseError);
                    if (!model) {
                      ctx.diags().error({}, "timing-model: " + parseError);
                      return false;
                    }
                    dp::RetimeOptions ro;
                    ro.targetNs = ctx.options.dpOptions.targetStageDelayNs;
                    ro.multStyle = ctx.options.dpOptions.multStyle;
                    if (!dp::retimePipeline(ctx.result.datapath, *model, ro,
                                            ctx.result.retiming, ctx.diags())) {
                      return false;
                    }
                    const auto& rr = ctx.result.retiming;
                    st.add("stages-before", rr.stagesBefore);
                    st.add("stages-after", rr.stagesAfter);
                    st.add("merges", rr.merges);
                    st.add("moved-ops", rr.movedOps);
                    st.add("worst-stage-ps", static_cast<int64_t>(rr.worstStageNs * 1000 + 0.5));
                    st.add("fmax-khz", static_cast<int64_t>(rr.fmaxMHz * 1000 + 0.5));
                    st.add("feasible", rr.feasible ? 1 : 0);
                    return true;
                  }};
  retimePass.enabled = opts.retimePipeline && opts.dpOptions.pipeline;
  pm.addPass(std::move(retimePass));
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
  pm.addPass({"emit-verilog", PassLayer::Vhdl, [](PassContext& ctx, PassStatistics& st) {
                ctx.result.verilog = verilog::emitDesign(ctx.result.datapath, ctx.result.kernel);
                st.add("bytes", static_cast<int64_t>(ctx.result.verilog.size()));
                return true;
              }});
  return pm;
}

CompileResult Compiler::compileSource(const std::string& cSource) const {
  CompileResult r;
  PassContext ctx(options_, r);
  ctx.source = cSource;

  // Per-job governance: the budget (deadline clock starts here) and any
  // armed fault point are installed into this thread's slots, so layer code
  // deep in the pipeline can checkpoint without threading a handle through
  // every signature. Each batch job runs wholly on one worker thread.
  CompileBudget budget(options_.budget);
  ctx.budget = &budget;
  BudgetScope budgetScope(&budget);
  FaultInjectionScope faultScope(options_.injectFaultAt);

  try {
    const PassManager pm = buildPipeline();
    pm.run(ctx, r.passLog);
  } catch (const std::exception& e) {
    // Belt over the pass-edge suspenders: nothing should escape
    // PassManager::run, but a throw from pipeline construction itself must
    // still come out as a structured outcome, not a dead process.
    r.outcome = CompileOutcome::InternalError;
    r.diags.error({}, fmt("internal: unhandled exception outside the pass boundary: %0", e.what()));
  }

  if (r.outcome == CompileOutcome::Ok && r.diags.hasErrors()) {
    r.outcome = CompileOutcome::FrontendError;
  }
  r.ok = r.outcome == CompileOutcome::Ok && !r.diags.hasErrors();
  return r;
}

CosimReport cosimulate(const CompileResult& compiled, const std::string& originalSource,
                       const interp::KernelIO& inputs, rtl::SystemOptions sysOptions) {
  CosimReport rep;

  // Software: the original kernel through the interpreter.
  DiagEngine diags;
  ast::Module m = ast::parse(originalSource, diags);
  if (diags.hasErrors() || !ast::analyze(m, diags)) {
    rep.mismatch = "software reference failed to build: " + diags.dump();
    return rep;
  }
  rep.software = interp::runKernel(m, compiled.kernel.kernelName, inputs);

  // Hardware: cycle-accurate Fig 2 system.
  rtl::System system(compiled.kernel, compiled.datapath, compiled.module, sysOptions);
  rep.hardware = system.run(inputs);
  rep.stats = system.stats();

  // Compare outputs the kernel defines: output arrays, scalar outs,
  // feedback finals.
  rep.match = true;
  for (const auto& st : compiled.kernel.outputs) {
    const auto& hw = rep.hardware.arrays.at(st.arrayName);
    const auto it = rep.software.arrays.find(st.arrayName);
    if (it == rep.software.arrays.end() || it->second.size() != hw.size()) {
      rep.match = false;
      rep.mismatch = fmt("array '%0' size mismatch", st.arrayName);
      return rep;
    }
    for (size_t i = 0; i < hw.size(); ++i) {
      if (hw[i] != it->second[i]) {
        rep.match = false;
        rep.mismatch = fmt("array '%0'[%1]: hw=%2 sw=%3", st.arrayName, i, hw[i], it->second[i]);
        return rep;
      }
    }
  }
  for (const auto& so : compiled.kernel.scalarOutputs) {
    const auto hw = rep.hardware.scalars.find(so.name);
    const auto sw = rep.software.scalars.find(so.name);
    if (hw == rep.hardware.scalars.end() || sw == rep.software.scalars.end() ||
        hw->second != sw->second) {
      rep.match = false;
      rep.mismatch = fmt("scalar '%0': hw=%1 sw=%2", so.name,
                         hw == rep.hardware.scalars.end() ? 0 : hw->second,
                         sw == rep.software.scalars.end() ? 0 : sw->second);
      return rep;
    }
  }
  for (const auto& fb : compiled.kernel.feedbacks) {
    const auto hw = rep.hardware.scalars.find(fb.name);
    const auto sw = rep.software.scalars.find(fb.name);
    if (sw == rep.software.scalars.end()) continue; // local feedback, not visible in sw results
    if (hw == rep.hardware.scalars.end() || hw->second != sw->second) {
      rep.match = false;
      rep.mismatch = fmt("feedback '%0': hw=%1 sw=%2", fb.name,
                         hw == rep.hardware.scalars.end() ? 0 : hw->second, sw->second);
      return rep;
    }
  }
  return rep;
}

} // namespace roccc
