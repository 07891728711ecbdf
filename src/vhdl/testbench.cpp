#include "vhdl/testbench.hpp"

#include <algorithm>
#include <memory>

#include "dp/eval.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vhdl/layout.hpp"

namespace roccc::vhdl {

namespace {

using hdl::sanitize;

std::string literal(const Value& v, ScalarType t) {
  return fmt("to_%0(%1, %2)", t.isSigned ? "signed" : "unsigned", v.convertTo(t).toInt(), t.width);
}

std::string emitTestbenchBody(const dp::DataPath& dp, const std::vector<TestVector>& vectors,
                              const std::vector<std::string>& headerLines) {
  IndentWriter w;
  const std::string top = sanitize(dp.name);
  const std::string name = top + "_tb";
  const int latency = dp.stageCount - 1;
  const size_t n = vectors.size();

  for (const std::string& line : headerLines) w.line(line);
  w.line("library ieee;");
  w.line("use ieee.std_logic_1164.all;");
  w.line("use ieee.numeric_std.all;");
  w.blank();
  w.line("entity " + name + " is");
  w.line("end entity " + name + ";");
  w.blank();
  w.line("architecture sim of " + name + " is");
  w.indent();
  w.line("signal clk : std_logic := '0';");
  w.line("signal ce  : std_logic := '1';");
  w.line("signal tb_valid : std_logic := '1';");
  w.line("signal done : boolean := false;");
  for (const auto& p : dp.inputs) {
    w.line(fmt("signal %0 : %1(%2 downto 0);", sanitize(p.name),
               p.type.isSigned ? "signed" : "unsigned", p.type.width - 1));
  }
  for (const auto& p : dp.outputs) {
    w.line(fmt("signal %0 : %1(%2 downto 0);", sanitize(p.name),
               p.type.isSigned ? "signed" : "unsigned", p.type.width - 1));
  }
  // Stimulus/expectation ROMs.
  for (size_t ip = 0; ip < dp.inputs.size(); ++ip) {
    const auto& p = dp.inputs[ip];
    std::vector<std::string> vals;
    for (const auto& v : vectors) vals.push_back(literal(v.inputs[ip], p.type));
    w.line(fmt("type %0_vec_t is array (0 to %1) of %2(%3 downto 0);", sanitize(p.name), n - 1,
               p.type.isSigned ? "signed" : "unsigned", p.type.width - 1));
    w.line(fmt("constant %0_vec : %0_vec_t := (%1);", sanitize(p.name), join(vals, ", ")));
  }
  for (size_t op = 0; op < dp.outputs.size(); ++op) {
    const auto& p = dp.outputs[op];
    std::vector<std::string> vals;
    for (const auto& v : vectors) vals.push_back(literal(v.expectedOutputs[op], p.type));
    w.line(fmt("type %0_exp_t is array (0 to %1) of %2(%3 downto 0);", sanitize(p.name), n - 1,
               p.type.isSigned ? "signed" : "unsigned", p.type.width - 1));
    w.line(fmt("constant %0_exp : %0_exp_t := (%1);", sanitize(p.name), join(vals, ", ")));
  }
  w.dedent();
  w.line("begin");
  w.indent();
  w.line("clk <= not clk after 5 ns when not done else '0';");
  w.blank();
  std::vector<std::string> assoc = {"clk => clk", "ce => ce"};
  if (!dp.feedbacks.empty()) assoc.push_back("valid => tb_valid");
  for (const auto& p : dp.inputs) assoc.push_back(sanitize(p.name) + " => " + sanitize(p.name));
  for (const auto& p : dp.outputs) assoc.push_back(sanitize(p.name) + " => " + sanitize(p.name));
  w.line("dut : entity work." + top);
  w.indent();
  w.line("port map (" + join(assoc, ", ") + ");");
  w.dedent();
  w.blank();
  w.line("stimulus : process");
  w.line("begin");
  w.indent();
  w.line(fmt("for t in 0 to %0 loop", n - 1 + static_cast<size_t>(latency)));
  w.indent();
  for (size_t ip = 0; ip < dp.inputs.size(); ++ip) {
    const std::string nm = sanitize(dp.inputs[ip].name);
    w.line(fmt("if t <= %0 then %1 <= %1_vec(t); end if;", n - 1, nm));
  }
  w.line("wait until rising_edge(clk);");
  if (latency > 0) w.line(fmt("if t >= %0 then", latency));
  if (latency > 0) w.indent();
  for (size_t op = 0; op < dp.outputs.size(); ++op) {
    const std::string nm = sanitize(dp.outputs[op].name);
    const std::string idx = latency > 0 ? fmt("t - %0", latency) : std::string("t");
    w.line(fmt("assert %0 = %0_exp(%1)", nm, idx));
    w.indent();
    w.line(fmt("report \"mismatch on %0 at vector \" & integer'image(%1) severity failure;", nm, idx));
    w.dedent();
  }
  if (latency > 0) {
    w.dedent();
    w.line("end if;");
  }
  w.dedent();
  w.line("end loop;");
  w.line("tb_valid <= '0';");
  w.line("report \"TESTBENCH PASSED\" severity note;");
  w.line("done <= true;");
  w.line("wait;");
  w.dedent();
  w.line("end process;");
  w.dedent();
  w.line("end architecture sim;");
  return w.str();
}

} // namespace

std::vector<TestVector> makeVectors(const dp::DataPath& dp,
                                    const std::vector<std::vector<int64_t>>& inputSets) {
  std::vector<TestVector> vectors;
  std::map<std::string, Value> feedback;
  for (const auto& set : inputSets) {
    TestVector v;
    for (size_t p = 0; p < dp.inputs.size(); ++p) {
      v.inputs.push_back(Value::fromInt(dp.inputs[p].type, set.at(p)));
    }
    const dp::EvalResult r = dp::evaluate(dp, v.inputs, feedback);
    v.expectedOutputs = r.outputs;
    feedback = r.nextFeedback;
    vectors.push_back(std::move(v));
  }
  return vectors;
}

std::string emitTestbench(const dp::DataPath& dp, const std::vector<TestVector>& vectors) {
  const std::string top = sanitize(dp.name);
  const int latency = dp.stageCount - 1;
  return emitTestbenchBody(
      dp, vectors,
      {"-- Self-checking testbench for '" + top + "' (generated with the cosimulation",
       fmt("-- vectors; pipeline latency %0 cycles).", latency)});
}

std::vector<TestVector> makeSystemVectors(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                                          const interp::KernelIO& io, int extraRandom,
                                          uint64_t seed, TestbenchInfo* info) {
  interp::Interpreter sim(kernel.dpModule);
  const rtl::StreamTrace trace =
      rtl::traceStreamingModel(kernel, dp, io, rtl::interpreterStep(kernel, dp, sim));
  return makeSystemVectors(kernel, dp, trace, extraRandom, seed, info);
}

std::vector<TestVector> makeSystemVectors(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                                          const rtl::StreamTrace& trace, int extraRandom,
                                          uint64_t seed, TestbenchInfo* info) {
  std::vector<TestVector> vectors;
  vectors.reserve(trace.inputs.size() + static_cast<size_t>(std::max(extraRandom, 0)));
  for (size_t t = 0; t < trace.inputs.size(); ++t) {
    TestVector v;
    v.inputs = trace.inputs[t];
    v.expectedOutputs.reserve(dp.outputs.size());
    for (size_t p = 0; p < dp.outputs.size(); ++p) {
      v.expectedOutputs.push_back(trace.outputs[t][p].convertTo(dp.outputs[p].type));
    }
    vectors.push_back(std::move(v));
  }

  // Seeded extras continue the feedback sequence past the iteration space;
  // expectations still come from the interpreter, so the testbench stays
  // self-consistent whatever the stimulus.
  std::map<std::string, Value> feedback = trace.finalFeedback;
  SplitMix64 rng(fnv1aMix(seed, fnv1a(kernel.kernelName)));
  interp::Interpreter sim(kernel.dpModule);
  const rtl::StreamStep step = rtl::interpreterStep(kernel, dp, sim);
  std::vector<Value> outputs;
  for (int e = 0; e < extraRandom; ++e) {
    TestVector v;
    v.inputs.reserve(dp.inputs.size());
    for (const auto& port : dp.inputs) {
      v.inputs.push_back(
          Value::fromInt(port.type, rng.inRange(port.type.minValue(), port.type.maxValue())));
    }
    feedback = step(v.inputs, feedback, outputs);
    v.expectedOutputs.reserve(dp.outputs.size());
    for (size_t p = 0; p < dp.outputs.size(); ++p) {
      v.expectedOutputs.push_back(outputs[p].convertTo(dp.outputs[p].type));
    }
    vectors.push_back(std::move(v));
  }

  if (info) {
    info->kernelName = kernel.kernelName;
    info->traceVectors = static_cast<int64_t>(trace.inputs.size());
    info->extraVectors = std::max(extraRandom, 0);
    info->seed = extraRandom > 0 ? seed : 0;
  }
  return vectors;
}

std::string emitSystemTestbench(const dp::DataPath& dp, const hlir::KernelInfo& kernel,
                                const std::vector<TestVector>& vectors,
                                const TestbenchInfo& info) {
  std::vector<std::string> header;
  header.push_back(fmt("-- Self-checking system-level testbench for kernel '%0'.", info.kernelName));
  header.push_back("-- Stimulus and expected outputs: AST interpreter on the extracted data-path");
  header.push_back("-- function over the full iteration space (Fig 2 streaming model).");
  std::vector<std::string> loops;
  for (const auto& l : kernel.loops) {
    loops.push_back(fmt("%0 in [%1, %2) step %3", l.iv, l.begin, l.end, l.step));
  }
  if (!loops.empty()) header.push_back("-- loops: " + join(loops, "; "));
  std::string counts = fmt("-- vectors: %0 interpreter-derived", info.traceVectors);
  if (info.extraVectors > 0) {
    counts += fmt(" + %0 seeded extras (tb-seed %1)", info.extraVectors, info.seed);
  }
  header.push_back(counts);
  header.push_back(fmt("-- pipeline latency %0 cycles.", dp.stageCount - 1));
  return emitTestbenchBody(dp, vectors, header);
}

TestbenchSimResult simulateTestbench(const dp::DataPath& dp, const rtl::Module& module,
                                     const std::vector<TestVector>& vectors,
                                     rtl::SimEngine engine) {
  TestbenchSimResult res;
  if (vectors.empty()) {
    res.passed = true;
    return res;
  }

  std::unique_ptr<rtl::NetlistSim> ref;
  std::unique_ptr<rtl::FastSim> fast;
  if (engine == rtl::SimEngine::Reference) {
    ref = std::make_unique<rtl::NetlistSim>(module);
  } else {
    fast = std::make_unique<rtl::FastSim>(module);
  }
  const auto setInput = [&](size_t port, const Value& v) {
    if (ref) ref->setInput(port, v);
    else fast->setInput(port, v);
  };
  const auto evalAll = [&] { ref ? ref->eval() : fast->eval(); };
  const auto readOutput = [&](size_t port) { return ref ? ref->output(port) : fast->output(port); };
  const auto tickAll = [&] { ref ? ref->tick(true) : fast->tick(true); };

  // The dp input ports come first; when feedbacks exist the module has one
  // extra '__valid' input the testbench drives high throughout the loop.
  const bool hasValid = module.inputPorts.size() > dp.inputs.size();
  const size_t n = vectors.size();
  const size_t latency = static_cast<size_t>(module.latency);

  // The VHDL stimulus process: at loop index t, drive vector min(t, n-1)
  // (inputs hold their last value during the pipeline flush), wait for the
  // rising edge, and assert — assertions read *pre-edge* values, i.e. the
  // combinational outputs of the pre-tick state, so the comparison here
  // happens after eval() and before tick().
  for (size_t t = 0; t < n + latency; ++t) {
    const TestVector& v = vectors[std::min(t, n - 1)];
    for (size_t p = 0; p < dp.inputs.size(); ++p) {
      setInput(p, v.inputs[p].convertTo(dp.inputs[p].type));
    }
    if (hasValid) setInput(dp.inputs.size(), Value(ScalarType::boolTy(), 1));
    evalAll();
    if (t >= latency) {
      const size_t idx = t - latency;
      for (size_t op = 0; op < dp.outputs.size(); ++op) {
        const Value got = readOutput(op).convertTo(dp.outputs[op].type);
        const Value want = vectors[idx].expectedOutputs[op].convertTo(dp.outputs[op].type);
        if (got.bits() != want.bits()) {
          res.firstFailure = fmt("mismatch on %0 at vector %1: expected %2, got %3 (%4 engine)",
                                 dp.outputs[op].name, idx, want.toInt(), got.toInt(),
                                 rtl::simEngineName(engine));
          return res;
        }
      }
    }
    tickAll();
  }
  res.passed = true;
  return res;
}

} // namespace roccc::vhdl
