#include "roccc/verify.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "dp/eval.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "mir/exec.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vhdl/testbench.hpp"

namespace roccc {

namespace {

bool engineRequested(const VerifyOptions& opt, VerifyEngine e) {
  if (e == VerifyEngine::Interp) return true; // the oracle always runs
  return (opt.engineMask >> static_cast<int>(e)) & 1u;
}

/// First difference between the golden kernel results and an engine's,
/// over everything the kernel defines: output arrays (element order),
/// scalar outs, exported feedback finals.
std::optional<Counterexample> compareFinal(const hlir::KernelInfo& kernel,
                                           const interp::KernelIO& golden,
                                           const interp::KernelIO& got) {
  for (const auto& st : kernel.outputs) {
    const auto g = golden.arrays.find(st.arrayName);
    const auto h = got.arrays.find(st.arrayName);
    if (g == golden.arrays.end() || h == got.arrays.end() || g->second.size() != h->second.size()) {
      Counterexample ce;
      ce.port = st.arrayName;
      ce.detail = fmt("output array '%0' missing or size mismatch", st.arrayName);
      return ce;
    }
    for (size_t i = 0; i < g->second.size(); ++i) {
      if (g->second[i] != h->second[i]) {
        Counterexample ce;
        ce.port = st.arrayName;
        ce.index = static_cast<int64_t>(i);
        ce.expected = std::to_string(g->second[i]);
        ce.got = std::to_string(h->second[i]);
        ce.detail = fmt("array '%0'[%1]: expected %2, got %3", st.arrayName, i, g->second[i],
                        h->second[i]);
        return ce;
      }
    }
  }
  const auto compareScalar = [&](const std::string& name) -> std::optional<Counterexample> {
    const auto g = golden.scalars.find(name);
    if (g == golden.scalars.end()) return std::nullopt; // not visible in golden results
    const auto h = got.scalars.find(name);
    const int64_t hv = h == got.scalars.end() ? 0 : h->second;
    if (h != got.scalars.end() && hv == g->second) return std::nullopt;
    Counterexample ce;
    ce.port = name;
    ce.expected = std::to_string(g->second);
    ce.got = h == got.scalars.end() ? "<missing>" : std::to_string(hv);
    ce.detail = fmt("scalar '%0': expected %1, got %2", name, ce.expected, ce.got);
    return ce;
  };
  for (const auto& so : kernel.scalarOutputs) {
    if (auto ce = compareScalar(so.name)) return ce;
  }
  for (const auto& fb : kernel.feedbacks) {
    if (auto ce = compareScalar(fb.name)) return ce;
  }
  return std::nullopt;
}

/// First per-iteration divergence between the reference trace and an
/// engine's trace: sharper than compareFinal because it pins the exact
/// iteration and data-path port, before window scatter can mask it.
std::optional<Counterexample> compareTraces(const dp::DataPath& dp,
                                            const hlir::KernelInfo& kernel,
                                            const rtl::StreamTrace& ref,
                                            const rtl::StreamTrace& got) {
  for (size_t t = 0; t < ref.outputs.size() && t < got.outputs.size(); ++t) {
    for (size_t p = 0; p < dp.outputs.size(); ++p) {
      const int64_t want = ref.outputs[t][p].convertTo(dp.outputs[p].type).toInt();
      const int64_t have = got.outputs[t][p].convertTo(dp.outputs[p].type).toInt();
      if (want != have) {
        Counterexample ce;
        ce.port = dp.outputs[p].name;
        ce.index = static_cast<int64_t>(t);
        ce.expected = std::to_string(want);
        ce.got = std::to_string(have);
        ce.detail = fmt("iteration %0, dp output '%1': expected %2, got %3", t,
                        dp.outputs[p].name, want, have);
        return ce;
      }
    }
  }
  for (const auto& fb : kernel.feedbacks) {
    const auto g = ref.finalFeedback.find(fb.name);
    const auto h = got.finalFeedback.find(fb.name);
    if (g == ref.finalFeedback.end()) continue;
    const int64_t want = g->second.convertTo(fb.type).toInt();
    const int64_t have = h == got.finalFeedback.end() ? 0 : h->second.convertTo(fb.type).toInt();
    if (h == got.finalFeedback.end() || want != have) {
      Counterexample ce;
      ce.port = fb.name;
      ce.index = static_cast<int64_t>(ref.outputs.size());
      ce.expected = std::to_string(want);
      ce.got = h == got.finalFeedback.end() ? "<missing>" : std::to_string(have);
      ce.detail = fmt("final feedback '%0': expected %1, got %2", fb.name, ce.expected, ce.got);
      return ce;
    }
  }
  return std::nullopt;
}

/// Replays the engine-1 trace's recorded per-iteration port inputs through
/// `step`, threading feedback from the kernel's initial values the way
/// rtl::traceStreamingModel does. The inputs are exactly what that model
/// would gather again from the same stimulus through the same PortBinding,
/// so only the step differs between engines. Records what compareTraces
/// reads: the per-iteration outputs and the final feedback.
rtl::StreamTrace replayTrace(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                             const rtl::StreamTrace& ref, const rtl::StreamStep& step) {
  rtl::StreamTrace got;
  std::map<std::string, Value>& feedback = got.finalFeedback;
  for (const auto& fb : kernel.feedbacks) feedback[fb.name] = Value::fromInt(fb.type, fb.initial);
  got.outputs.reserve(ref.inputs.size());
  for (const std::vector<Value>& inputs : ref.inputs) {
    std::vector<Value> outputs;
    const std::map<std::string, Value>& next = step(inputs, feedback, outputs);
    if (outputs.size() != dp.outputs.size()) {
      throw std::runtime_error(fmt("step produced %0 outputs, %1 ports expected", outputs.size(),
                                   dp.outputs.size()));
    }
    feedback = next;
    got.outputs.push_back(std::move(outputs));
  }
  return got;
}

/// Lockstep net-level replay of NetlistSim (oracle) against FastSim on the
/// reference stimulus: localizes a netlist-engine disagreement to the first
/// diverging net and cycle.
std::optional<Counterexample> lockstepNets(const dp::DataPath& dp, const rtl::Module& module,
                                           const rtl::StreamTrace& ref) {
  if (ref.inputs.empty()) return std::nullopt;
  rtl::NetlistSim oracle(module);
  rtl::FastSim fast(module);
  const bool hasValid = module.inputPorts.size() > dp.inputs.size();
  const size_t n = ref.inputs.size();
  const size_t latency = static_cast<size_t>(module.latency);
  for (size_t t = 0; t < n + latency; ++t) {
    const auto& ins = ref.inputs[std::min(t, n - 1)];
    for (size_t p = 0; p < dp.inputs.size(); ++p) {
      const Value v = ins[p].convertTo(dp.inputs[p].type);
      oracle.setInput(p, v);
      fast.setInput(p, v);
    }
    if (hasValid) {
      oracle.setInput(dp.inputs.size(), Value(ScalarType::boolTy(), 1));
      fast.setInput(dp.inputs.size(), Value(ScalarType::boolTy(), 1));
    }
    oracle.eval();
    fast.eval();
    for (const auto& net : module.nets) {
      const Value a = oracle.netValue(net.id);
      const Value b = fast.netValue(net.id);
      if (a.bits() != b.bits()) {
        Counterexample ce;
        ce.engine = VerifyEngine::FastSim;
        ce.port = fmt("net '%0'", net.name.empty() ? std::to_string(net.id) : net.name);
        ce.index = static_cast<int64_t>(t);
        ce.expected = std::to_string(a.toInt());
        ce.got = std::to_string(b.toInt());
        ce.detail = fmt("cycle %0, %1: reference drives %2, fast drives %3", t, ce.port,
                        ce.expected, ce.got);
        return ce;
      }
    }
    oracle.tick(true);
    fast.tick(true);
  }
  return std::nullopt;
}

uint64_t digestIO(const hlir::KernelInfo& kernel, const interp::KernelIO& golden) {
  uint64_t d = fnv1a("roccc-verify");
  for (const auto& st : kernel.outputs) {
    d = fnv1a(st.arrayName, d);
    const auto it = golden.arrays.find(st.arrayName);
    if (it == golden.arrays.end()) continue;
    for (const int64_t v : it->second) d = fnv1aMix(static_cast<uint64_t>(v), d);
  }
  const auto mixScalar = [&](const std::string& name) {
    const auto it = golden.scalars.find(name);
    if (it == golden.scalars.end()) return;
    d = fnv1a(name, d);
    d = fnv1aMix(static_cast<uint64_t>(it->second), d);
  };
  for (const auto& so : kernel.scalarOutputs) mixScalar(so.name);
  for (const auto& fb : kernel.feedbacks) mixScalar(fb.name);
  return d;
}

} // namespace

const char* verifyEngineName(VerifyEngine e) {
  switch (e) {
    case VerifyEngine::Interp: return "interp";
    case VerifyEngine::MirExec: return "mir-exec";
    case VerifyEngine::DpEval: return "dp-eval";
    case VerifyEngine::NetlistRef: return "netlist-ref";
    case VerifyEngine::FastSim: return "fastsim";
  }
  return "?";
}

interp::KernelIO deterministicStimulus(const hlir::KernelInfo& kernel, uint64_t seed) {
  interp::KernelIO io;
  for (const auto& st : kernel.inputs) {
    SplitMix64 rng(fnv1aMix(seed, fnv1a(kernel.kernelName + "/" + st.arrayName)));
    int64_t n = 1;
    for (const int64_t d : st.dims) n *= d;
    std::vector<int64_t> data(static_cast<size_t>(n));
    for (auto& v : data) v = rng.inRange(st.elemType.minValue(), st.elemType.maxValue());
    io.arrays[st.arrayName] = std::move(data);
  }
  for (const auto& si : kernel.scalarInputs) {
    if (si.isInduction) continue;
    SplitMix64 rng(fnv1aMix(seed, fnv1a(kernel.kernelName + "/$" + si.name)));
    io.scalars[si.name] = rng.inRange(si.type.minValue(), si.type.maxValue());
  }
  return io;
}

KernelVerdict verifyKernel(const std::string& name, const std::string& source,
                           const CompileResult& compiled, const VerifyOptions& opt) {
  const interp::KernelIO io =
      compiled.ok ? deterministicStimulus(compiled.kernel, opt.seed) : interp::KernelIO{};
  return verifyKernel(name, source, compiled, io, opt);
}

KernelVerdict verifyKernel(const std::string& name, const std::string& source,
                           const CompileResult& compiled, const interp::KernelIO& io,
                           const VerifyOptions& opt) {
  KernelVerdict v;
  v.kernel = name;
  v.outcome = compiled.outcome;
  if (!compiled.ok) {
    v.compileError = compiled.diags.dump();
    return v;
  }
  if (compiled.kernel.kernelName.empty()) {
    v.outcome = CompileOutcome::InternalError;
    v.compileError = "compile result carries no IR (cache hit?) — verification needs a fresh compile";
    return v;
  }

  const hlir::KernelInfo& kernel = compiled.kernel;
  const dp::DataPath& dp = compiled.datapath;

  const auto fail = [&](VerifyEngine e, Counterexample ce) {
    ce.kernel = name;
    ce.engine = ce.port.rfind("net '", 0) == 0 ? ce.engine : e;
    v.disagreements.push_back(std::move(ce));
  };
  const auto failText = [&](VerifyEngine e, const std::string& detail) {
    Counterexample ce;
    ce.detail = detail;
    fail(e, std::move(ce));
  };

  // Golden: the AST interpreter on the original source.
  interp::KernelIO& golden = v.outputs;
  try {
    DiagEngine diags;
    ast::Module m = ast::parse(source, diags);
    if (diags.hasErrors() || !ast::analyze(m, diags)) {
      v.outcome = CompileOutcome::InternalError;
      v.compileError = "golden model failed to build: " + diags.dump();
      return v;
    }
    golden = interp::runKernel(m, kernel.kernelName, io);
  } catch (const interp::InterpError& e) {
    v.outcome = CompileOutcome::InternalError;
    v.compileError = "golden model failed to run: " + e.message;
    return v;
  }
  v.outputDigest = digestIO(kernel, golden);

  // Engine 1, Interp: the streaming model driven by the AST interpreter on
  // the extracted data-path function, against the original-source run.
  // This checks the front end (extraction, scalar replacement, feedback
  // detection, access patterns); every later engine compares against the
  // per-iteration trace this run records.
  interp::Interpreter dpSim(kernel.dpModule);
  rtl::StreamTrace ref;
  try {
    ref = rtl::traceStreamingModel(kernel, dp, io, rtl::interpreterStep(kernel, dp, dpSim));
  } catch (const std::exception& e) {
    failText(VerifyEngine::Interp, fmt("streaming model failed: %0", e.what()));
    return v;
  } catch (const interp::InterpError& e) {
    failText(VerifyEngine::Interp, fmt("streaming model failed: %0", e.message));
    return v;
  }
  v.iterations = static_cast<int64_t>(ref.outputs.size());
  ++v.enginesRun;
  if (auto ce = compareFinal(kernel, golden, ref.final)) fail(VerifyEngine::Interp, std::move(*ce));

  // Engine 2, MirExec: mir::execute per iteration, ports mapped by name
  // (MIR params and dp ports share the data-path function's names), on the
  // port inputs engine 1 recorded.
  if (engineRequested(opt, VerifyEngine::MirExec)) {
    ++v.enginesRun;
    const mir::FunctionIR& f = compiled.mir;
    std::vector<int> inIdx(dp.inputs.size(), -1);
    bool mapped = true;
    for (size_t p = 0; p < dp.inputs.size(); ++p) {
      const auto idx = f.inputPortIndex(dp.inputs[p].name);
      if (!idx) {
        failText(VerifyEngine::MirExec, fmt("dp input '%0' has no MIR port", dp.inputs[p].name));
        mapped = false;
        break;
      }
      inIdx[p] = *idx;
    }
    std::vector<ScalarType> inTypes;
    std::vector<std::string> outNames;
    for (const auto& prm : f.params) {
      if (prm.isOutput) outNames.push_back(prm.name);
      else inTypes.push_back(prm.type);
    }
    std::vector<int> outIdx(dp.outputs.size(), -1);
    for (size_t p = 0; mapped && p < dp.outputs.size(); ++p) {
      const auto it = std::find(outNames.begin(), outNames.end(), dp.outputs[p].name);
      if (it == outNames.end()) {
        failText(VerifyEngine::MirExec, fmt("dp output '%0' has no MIR port", dp.outputs[p].name));
        mapped = false;
        break;
      }
      outIdx[p] = static_cast<int>(it - outNames.begin());
    }
    if (mapped) {
      mir::Executor exec(f);
      std::vector<Value> mirInputs(inTypes.size()); // reused by every iteration
      const auto step = [&](const std::vector<Value>& inputs,
                            const std::map<std::string, Value>& feedback,
                            std::vector<Value>& outputs) -> const std::map<std::string, Value>& {
        for (size_t p = 0; p < inputs.size(); ++p) {
          mirInputs[static_cast<size_t>(inIdx[p])] =
              Value::fromInt(inTypes[static_cast<size_t>(inIdx[p])], inputs[p].toInt());
        }
        const mir::ExecResult& r = exec.run(mirInputs, feedback);
        outputs.resize(dp.outputs.size());
        for (size_t p = 0; p < dp.outputs.size(); ++p) {
          outputs[p] = r.outputs[static_cast<size_t>(outIdx[p])];
        }
        return r.nextFeedback;
      };
      try {
        const rtl::StreamTrace got = replayTrace(kernel, dp, ref, step);
        if (auto ce = compareTraces(dp, kernel, ref, got)) fail(VerifyEngine::MirExec, std::move(*ce));
      } catch (const std::exception& e) {
        failText(VerifyEngine::MirExec, fmt("mir execution failed: %0", e.what()));
      }
    }
  }

  // Engine 3, DpEval: dp::evaluate at the inferred (narrowed) widths.
  if (engineRequested(opt, VerifyEngine::DpEval)) {
    ++v.enginesRun;
    dp::Evaluator eval(dp);
    const auto step = [&](const std::vector<Value>& inputs,
                          const std::map<std::string, Value>& feedback,
                          std::vector<Value>& outputs) -> const std::map<std::string, Value>& {
      const dp::EvalResult& r = eval.run(inputs, feedback);
      outputs = r.outputs;
      return r.nextFeedback;
    };
    try {
      const rtl::StreamTrace got = replayTrace(kernel, dp, ref, step);
      if (auto ce = compareTraces(dp, kernel, ref, got)) fail(VerifyEngine::DpEval, std::move(*ce));
    } catch (const std::exception& e) {
      failText(VerifyEngine::DpEval, fmt("dp evaluation failed: %0", e.what()));
    }
  }

  // Engines 4 and 5: the cycle-accurate Fig 2 system under each netlist
  // engine. Compared against the golden final state; if the two engines
  // also disagree with *each other*, a net-level lockstep replay localizes
  // the first diverging net and cycle.
  std::optional<interp::KernelIO> refHw, fastHw;
  const auto runSystem = [&](VerifyEngine e, rtl::SimEngine engine) -> std::optional<interp::KernelIO> {
    ++v.enginesRun;
    rtl::SystemOptions so = opt.system;
    so.engine = engine;
    try {
      rtl::System system(kernel, dp, compiled.module, so);
      interp::KernelIO hw = system.run(io);
      v.stats = system.stats();
      if (auto ce = compareFinal(kernel, golden, hw)) fail(e, std::move(*ce));
      return hw;
    } catch (const std::exception& ex) {
      failText(e, fmt("system simulation failed: %0", ex.what()));
      return std::nullopt;
    }
  };
  if (engineRequested(opt, VerifyEngine::NetlistRef)) {
    refHw = runSystem(VerifyEngine::NetlistRef, rtl::SimEngine::Reference);
  }
  if (engineRequested(opt, VerifyEngine::FastSim)) {
    fastHw = runSystem(VerifyEngine::FastSim, rtl::SimEngine::Fast);
  }
  if (refHw && fastHw && compareFinal(kernel, *refHw, *fastHw)) {
    if (auto ce = lockstepNets(dp, compiled.module, ref)) fail(VerifyEngine::FastSim, std::move(*ce));
  }

  // Optional: the generated system-level testbench must self-report
  // "TESTBENCH PASSED" under both netlist engines. Its vectors come from
  // the engine-1 trace; only the seeded extras run the interpreter.
  if (opt.checkTestbench) {
    try {
      const std::vector<vhdl::TestVector> vectors =
          vhdl::makeSystemVectors(kernel, dp, ref, /*extraRandom=*/8, opt.seed, nullptr);
      for (const rtl::SimEngine engine : {rtl::SimEngine::Reference, rtl::SimEngine::Fast}) {
        const vhdl::TestbenchSimResult r =
            vhdl::simulateTestbench(dp, compiled.module, vectors, engine);
        if (!r.passed) {
          v.testbenchPassed = false;
          failText(engine == rtl::SimEngine::Reference ? VerifyEngine::NetlistRef
                                                       : VerifyEngine::FastSim,
                   "testbench: " + r.firstFailure);
        }
      }
    } catch (const std::exception& e) {
      v.testbenchPassed = false;
      failText(VerifyEngine::NetlistRef, fmt("testbench generation failed: %0", e.what()));
    } catch (const interp::InterpError& e) {
      v.testbenchPassed = false;
      failText(VerifyEngine::NetlistRef, fmt("testbench generation failed: %0", e.message));
    }
  }

  v.agree = v.disagreements.empty() && v.testbenchPassed;
  return v;
}

VerifyReport verifyConformance(const std::vector<CompileJob>& jobs, const VerifyOptions& opt) {
  CompileService service(opt.workers);
  const BatchResult batch = service.compileBatch(jobs);
  VerifyReport report;
  report.verdicts.reserve(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    report.verdicts.push_back(verifyKernel(jobs[i].name, jobs[i].source, batch.results[i], opt));
  }
  return report;
}

std::string Counterexample::str() const {
  if (port.empty()) return fmt("%0 engine: %1", verifyEngineName(engine), detail);
  std::string s = fmt("%0 engine, port %1", verifyEngineName(engine), port);
  if (index >= 0) s += fmt(", index %0", index);
  return s + fmt(": expected %0, got %1", expected, got);
}

std::string KernelVerdict::firstProblem() const {
  if (!compileError.empty()) return compileError;
  return disagreements.empty() ? std::string() : disagreements.front().str();
}

int VerifyReport::agreed() const {
  int n = 0;
  for (const auto& v : verdicts) n += v.outcome == CompileOutcome::Ok && v.agree;
  return n;
}

int VerifyReport::compileFailures() const {
  int n = 0;
  for (const auto& v : verdicts) n += v.outcome != CompileOutcome::Ok;
  return n;
}

bool VerifyReport::allAgree() const {
  for (const auto& v : verdicts) {
    if (v.outcome == CompileOutcome::Ok && !v.agree) return false;
  }
  return true;
}

std::string VerifyReport::summary() const {
  const int fails = compileFailures();
  const int agree = agreed();
  const int disagree = static_cast<int>(verdicts.size()) - fails - agree;
  std::string s = fmt("%0 kernels: %1 agree, %2 disagree", verdicts.size(), agree, disagree);
  if (fails > 0) s += fmt(", %0 failed to compile", fails);
  return s;
}

json::Value VerifyReport::toJson() const {
  using json::Value;
  Value rows = Value::array();
  for (const KernelVerdict& v : verdicts) {
    Value row = Value::object({{"kernel", v.kernel}, {"outcome", compileOutcomeName(v.outcome)},
                               {"agree", v.agree}, {"testbenchPassed", v.testbenchPassed},
                               {"enginesRun", v.enginesRun}, {"iterations", v.iterations},
                               {"outputDigest", std::to_string(v.outputDigest)}});
    if (!v.compileError.empty()) row.set("compileError", v.compileError);
    Value disagreements = Value::array();
    for (const Counterexample& ce : v.disagreements) {
      disagreements.push(Value::object({{"engine", verifyEngineName(ce.engine)}, {"port", ce.port},
                                        {"index", ce.index}, {"expected", ce.expected},
                                        {"got", ce.got}, {"detail", ce.detail}}));
    }
    row.set("disagreements", std::move(disagreements));
    rows.push(std::move(row));
  }
  return Value::object({{"kernels", verdicts.size()}, {"agreed", agreed()},
                        {"compileFailures", compileFailures()}, {"verdicts", std::move(rows)}});
}

} // namespace roccc
