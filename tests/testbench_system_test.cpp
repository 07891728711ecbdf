// System-level testbench and structural-checker coverage:
//   - vhdl::checkDesign on malformed inputs (unbalanced blocks, label
//     mismatches, dangling instantiations, undeclared signal assignments)
//     and on every generated design+testbench pair;
//   - makeVectors feedback-register threading proven against a manually
//     threaded dp::evaluate sequence (and shown to matter: resetting the
//     feedback between vectors changes the answers);
//   - makeSystemVectors determinism / seed sensitivity, the provenance
//     header of emitSystemTestbench, and simulateTestbench failure
//     localization (a corrupted expectation names the port and vector);
//   - the trace form of makeSystemVectors (the one a verify job uses with
//     its engine-1 oracle trace) against the io form over Table 1 + the
//     corpus at unroll 1/2/4: same vectors, provenance and testbench text.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "dp/eval.hpp"
#include "roccc/verify.hpp"
#include "rtl/system.hpp"
#include "support/strings.hpp"
#include "vhdl/check.hpp"
#include "vhdl/testbench.hpp"

namespace roccc {
namespace {

CompileResult compileOk(const char* source) {
  CompileResult r = Compiler().compileSource(source);
  EXPECT_TRUE(r.ok) << r.diags.dump();
  return r;
}

// ---- checkDesign on malformed inputs ------------------------------------

TEST(VhdlCheck, FlagsUnclosedEntityAndMissingArchitecture) {
  const auto chk = vhdl::checkDesign("entity foo is\nport ( a : in bit );\n");
  EXPECT_FALSE(chk.ok);
  EXPECT_EQ(chk.entityCount, 1);
  const std::string all = join(chk.problems, "\n");
  EXPECT_NE(all.find("unclosed entity foo"), std::string::npos) << all;
  EXPECT_NE(all.find("entity 'foo' has no architecture"), std::string::npos) << all;
}

TEST(VhdlCheck, FlagsEndWithoutOpenBlock) {
  const auto chk = vhdl::checkDesign("end if;\nend process;\n");
  EXPECT_FALSE(chk.ok);
  const std::string all = join(chk.problems, "\n");
  EXPECT_NE(all.find("'end if' without open if"), std::string::npos) << all;
  EXPECT_NE(all.find("'end process' without open process"), std::string::npos) << all;
}

TEST(VhdlCheck, FlagsEntityEndLabelMismatch) {
  const auto chk = vhdl::checkDesign(
      "entity foo is\nend entity bar;\n"
      "architecture rtl of foo is\nbegin\nend architecture;\n");
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(join(chk.problems, "\n").find("end label 'bar' does not match 'foo'"),
            std::string::npos);
}

TEST(VhdlCheck, FlagsArchitectureOfUnknownEntity) {
  const auto chk = vhdl::checkDesign("architecture rtl of ghost is\nbegin\nend architecture;\n");
  EXPECT_FALSE(chk.ok);
  EXPECT_NE(join(chk.problems, "\n").find("architecture of unknown entity 'ghost'"),
            std::string::npos);
}

TEST(VhdlCheck, FlagsInstantiationOfUnknownEntity) {
  const auto chk = vhdl::checkDesign(
      "entity top is\nend entity top;\n"
      "architecture rtl of top is\nbegin\n"
      "u0 : entity work.missing port map ( );\n"
      "end architecture;\n");
  EXPECT_FALSE(chk.ok);
  EXPECT_EQ(chk.instantiationCount, 1);
  EXPECT_NE(join(chk.problems, "\n").find("instantiation of unknown entity 'missing'"),
            std::string::npos);
}

TEST(VhdlCheck, FlagsAssignmentToUndeclaredSignal) {
  const auto chk = vhdl::checkDesign(
      "entity top is\nend entity top;\n"
      "architecture rtl of top is\n"
      "signal a : bit;\n"
      "begin\n"
      "a <= '1';\n"
      "phantom <= '0';\n"
      "end architecture;\n");
  EXPECT_FALSE(chk.ok);
  const std::string all = join(chk.problems, "\n");
  EXPECT_NE(all.find("assignment to undeclared signal 'phantom'"), std::string::npos) << all;
  EXPECT_EQ(all.find("'a'"), std::string::npos) << "declared signal misflagged:\n" << all;
}

TEST(VhdlCheck, IgnoresCommentsAndStringLiterals) {
  const auto chk = vhdl::checkDesign(
      "-- entity ghost is\n"
      "entity top is\nend entity top;\n"
      "architecture rtl of top is\nbegin\n"
      "assert false report \"entity work.bogus\" severity note;\n"
      "end architecture;\n");
  EXPECT_TRUE(chk.ok) << join(chk.problems, "\n");
  EXPECT_EQ(chk.entityCount, 1);
  EXPECT_EQ(chk.instantiationCount, 0);
}

TEST(VhdlCheck, IdentifiersAndKeywordsAreCaseInsensitive) {
  const auto chk = vhdl::checkDesign(
      "Entity Foo IS\n"
      "  Port ( A : in bit; Q : OUT bit );\n"
      "End Entity foo;\n"
      "ARCHITECTURE Rtl Of FOO Is\n"
      "  Signal S : bit;\n"
      "Begin\n"
      "  s <= a;\n"
      "  Q <= S;\n"
      "end architecture RTL;\n");
  EXPECT_TRUE(chk.ok) << join(chk.problems, "\n");
  EXPECT_EQ(chk.entityCount, 1);
  EXPECT_EQ(chk.architectureCount, 1);
}

TEST(VhdlCheck, UnterminatedStringLiteralAtEndOfInput) {
  // The literal runs to the end of the buffer; the checker must stop there
  // and still report the architecture it never saw closed.
  const auto chk = vhdl::checkDesign(
      "entity top is\nend entity top;\n"
      "architecture rtl of top is\nbegin\n"
      "assert false report \"never closed");
  EXPECT_FALSE(chk.ok);
  EXPECT_EQ(chk.problems, std::vector<std::string>{"line 3: unclosed architecture top"});
  EXPECT_EQ(chk.entityCount, 1);
  EXPECT_EQ(chk.architectureCount, 1);

  const auto bare = vhdl::checkDesign("\"");
  EXPECT_TRUE(bare.ok) << join(bare.problems, "\n");
  const auto tick = vhdl::checkDesign("x <= '");
  EXPECT_TRUE(tick.ok) << join(tick.problems, "\n");
}

// Text that stops one to three tokens after `entity`, `architecture` or
// `end`: the block rules look three tokens ahead and skip up to three, so
// these cases read past the last token; the expected verdicts are the
// token-vector checker's.
struct EndOfInputCase {
  const char* text;
  std::vector<std::string> problems;
  int entities, architectures, processes, instantiations;
};

const EndOfInputCase kEndOfInputCases[] = {
    {"entity", {}, 0, 0, 0, 0},
    {"entity foo", {}, 0, 0, 0, 0},
    {"entity foo is",
     {"line 1: unclosed entity foo", "line 0: entity 'foo' has no architecture"},
     1, 0, 0, 0},
    {"entity work", {}, 0, 0, 0, 0},
    {"entity work.", {"line 0: instantiation of unknown entity ''"}, 0, 0, 0, 1},
    {"entity work.x", {"line 0: instantiation of unknown entity 'x'"}, 0, 0, 0, 1},
    {"architecture", {}, 0, 0, 0, 0},
    {"architecture rtl", {}, 0, 0, 0, 0},
    {"architecture rtl of",
     {"line 1: unclosed architecture ", "line 0: architecture of unknown entity ''"},
     0, 1, 0, 0},
    {"architecture rtl of foo",
     {"line 1: unclosed architecture foo", "line 0: architecture of unknown entity 'foo'"},
     0, 1, 0, 0},
    {"end", {}, 0, 0, 0, 0},
    {"end if", {"line 1: 'end if' without open if"}, 0, 0, 0, 0},
    {"end entity", {"line 1: 'end entity' without open entity"}, 0, 0, 0, 0},
    {"if c then end if", {}, 0, 0, 0, 0},
    {"entity foo is\nend",
     {"line 1: unclosed entity foo", "line 0: entity 'foo' has no architecture"},
     1, 0, 0, 0},
    {"entity foo is\nend entity", {"line 0: entity 'foo' has no architecture"}, 1, 0, 0, 0},
    {"entity foo is\nend entity bar",
     {"line 2: entity end label 'bar' does not match 'foo'", "line 0: entity 'foo' has no architecture"},
     1, 0, 0, 0},
    {"entity foo is\nend entity foo", {"line 0: entity 'foo' has no architecture"}, 1, 0, 0, 0},
    {"entity foo is port (",
     {"line 1: unclosed entity foo", "line 0: entity 'foo' has no architecture"},
     1, 0, 0, 0},
    {"entity foo is port ( a :",
     {"line 1: unclosed entity foo", "line 0: entity 'foo' has no architecture"},
     1, 0, 0, 0},
    {"entity foo is port ( q : out bit );\nend entity;\narchitecture rtl of foo is\nbegin\nq <=",
     {"line 3: unclosed architecture foo"},
     1, 1, 0, 0},
    {"entity foo is end entity;\narchitecture rtl of foo is\nbegin\nghost <=",
     {"line 2: unclosed architecture foo", "line 4: assignment to undeclared signal 'ghost' in architecture of 'foo'"},
     1, 1, 0, 0},
    {"entity foo is end entity;\narchitecture rtl of foo is\nsignal s : bit;\nbegin\ns <=",
     {"line 2: unclosed architecture foo"},
     1, 1, 0, 0},
    {"entity foo is end entity;\narchitecture rtl of foo is\nbegin\nghost",
     {"line 2: unclosed architecture foo"},
     1, 1, 0, 0},
    // A port counts even when its entity comes after the architecture.
    {"architecture rtl of foo is\nbegin\nq <= '1';\nend architecture;\nentity foo is port ( q : out bit );\nend entity foo;",
     {},
     1, 1, 0, 0},
};

TEST(VhdlCheck, TextEndingInsideABlockHeaderOrAssignment) {
  for (const auto& c : kEndOfInputCases) {
    const auto chk = vhdl::checkDesign(c.text);
    EXPECT_EQ(chk.problems, c.problems) << c.text;
    EXPECT_EQ(chk.ok, c.problems.empty()) << c.text;
    EXPECT_EQ(chk.entityCount, c.entities) << c.text;
    EXPECT_EQ(chk.architectureCount, c.architectures) << c.text;
    EXPECT_EQ(chk.processCount, c.processes) << c.text;
    EXPECT_EQ(chk.instantiationCount, c.instantiations) << c.text;
  }
}

// ---- makeVectors feedback threading --------------------------------------

TEST(MakeVectors, FeedbackThreadingMatchesManualEvaluation) {
  // mul_acc carries `acc` in a feedback register: vector t's expectations
  // depend on every vector before it.
  const CompileResult r = compileOk(bench::kMulAcc);
  ASSERT_FALSE(r.datapath.feedbacks.empty());

  std::vector<std::vector<int64_t>> sets;
  for (int t = 0; t < 12; ++t) {
    std::vector<int64_t> set;
    for (size_t p = 0; p < r.datapath.inputs.size(); ++p) {
      set.push_back(3 * t + static_cast<int64_t>(p) - 7);
    }
    sets.push_back(std::move(set));
  }
  const auto vectors = vhdl::makeVectors(r.datapath, sets);
  ASSERT_EQ(vectors.size(), sets.size());

  std::map<std::string, Value> fb;
  bool threadingMattered = false;
  for (size_t t = 0; t < vectors.size(); ++t) {
    std::vector<Value> inputs;
    for (size_t p = 0; p < r.datapath.inputs.size(); ++p) {
      inputs.push_back(Value::fromInt(r.datapath.inputs[p].type, sets[t][p]));
    }
    const dp::EvalResult threaded = dp::evaluate(r.datapath, inputs, fb);
    ASSERT_EQ(vectors[t].expectedOutputs.size(), threaded.outputs.size());
    for (size_t op = 0; op < threaded.outputs.size(); ++op) {
      EXPECT_EQ(vectors[t].expectedOutputs[op].bits(), threaded.outputs[op].bits())
          << "vector " << t << " output " << op;
    }
    // The control: evaluating the same vector from reset must diverge once
    // the accumulator holds state — otherwise this test proves nothing.
    if (t > 0) {
      const dp::EvalResult fresh = dp::evaluate(r.datapath, inputs, {});
      for (size_t op = 0; op < threaded.outputs.size(); ++op) {
        if (fresh.outputs[op].bits() != threaded.outputs[op].bits()) threadingMattered = true;
      }
    }
    fb = threaded.nextFeedback;
  }
  EXPECT_TRUE(threadingMattered) << "feedback never influenced an output across 12 vectors";
}

// ---- system-level vectors and their testbench ----------------------------

TEST(SystemTestbench, VectorsAreDeterministicAndSeedSensitive) {
  const CompileResult r = compileOk(bench::kFir);
  const interp::KernelIO io = deterministicStimulus(r.kernel, VerifyOptions{}.seed);
  vhdl::TestbenchInfo ia, ib, ic;
  const auto a = vhdl::makeSystemVectors(r.kernel, r.datapath, io, 8, 42, &ia);
  const auto b = vhdl::makeSystemVectors(r.kernel, r.datapath, io, 8, 42, &ib);
  const auto c = vhdl::makeSystemVectors(r.kernel, r.datapath, io, 8, 43, &ic);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), static_cast<size_t>(ia.traceVectors + ia.extraVectors));
  EXPECT_EQ(ia.seed, 42u);
  bool identical = true, extrasDiffer = false;
  for (size_t t = 0; t < a.size(); ++t) {
    for (size_t p = 0; p < a[t].inputs.size(); ++p) {
      if (a[t].inputs[p].bits() != b[t].inputs[p].bits()) identical = false;
      if (a[t].inputs[p].bits() != c[t].inputs[p].bits()) extrasDiffer = true;
    }
  }
  EXPECT_TRUE(identical);
  EXPECT_TRUE(extrasDiffer) << "a different --tb-seed produced identical extras";
  // The interpreter-derived prefix is seed-independent.
  for (int64_t t = 0; t < ia.traceVectors; ++t) {
    for (size_t p = 0; p < a[t].inputs.size(); ++p) {
      EXPECT_EQ(a[t].inputs[p].bits(), c[t].inputs[p].bits()) << "trace vector " << t;
    }
  }
}

TEST(SystemTestbench, EmittedBenchCarriesProvenanceAndValidates) {
  const CompileResult r = compileOk(bench::kMulAcc);
  const interp::KernelIO io = deterministicStimulus(r.kernel, VerifyOptions{}.seed);
  vhdl::TestbenchInfo info;
  info.kernelName = r.kernel.kernelName;
  const auto vectors = vhdl::makeSystemVectors(r.kernel, r.datapath, io, 16, 7, &info);
  const std::string tb = vhdl::emitSystemTestbench(r.datapath, r.kernel, vectors, info);

  EXPECT_NE(tb.find("Self-checking system-level testbench for kernel 'mul_acc'"),
            std::string::npos);
  EXPECT_NE(tb.find(fmt("-- vectors: %0 interpreter-derived + 16 seeded extras (tb-seed 7)",
                        info.traceVectors)),
            std::string::npos)
      << tb.substr(0, 400);
  EXPECT_NE(tb.find("-- loops:"), std::string::npos);
  EXPECT_NE(tb.find("TESTBENCH PASSED"), std::string::npos);
  const auto chk = vhdl::checkDesign(r.vhdl + "\n" + tb);
  EXPECT_TRUE(chk.ok) << join(chk.problems, "\n");
}

TEST(SystemTestbench, SimulatedBenchPassesOnBothEnginesAndFailsWhenCorrupted) {
  for (const char* source : {bench::kFir, bench::kMulAcc}) {
    const CompileResult r = compileOk(source);
    const interp::KernelIO io = deterministicStimulus(r.kernel, VerifyOptions{}.seed);
    auto vectors = vhdl::makeSystemVectors(r.kernel, r.datapath, io, 8, 42);
    for (const auto engine : {rtl::SimEngine::Reference, rtl::SimEngine::Fast}) {
      const auto sim = vhdl::simulateTestbench(r.datapath, r.module, vectors, engine);
      EXPECT_TRUE(sim.passed) << r.kernel.kernelName << ": " << sim.firstFailure;
    }

    // Corrupt one expectation: the replay must fail and name exactly that
    // port and vector index, mirroring the emitted assert message.
    const size_t victim = vectors.size() / 2;
    auto broken = vectors;
    Value& cell = broken[victim].expectedOutputs[0];
    cell = Value::fromInt(cell.type(), cell.toInt() + 1);
    const auto sim = vhdl::simulateTestbench(r.datapath, r.module, broken,
                                             rtl::SimEngine::Reference);
    EXPECT_FALSE(sim.passed);
    EXPECT_NE(sim.firstFailure.find(r.datapath.outputs[0].name), std::string::npos)
        << sim.firstFailure;
    EXPECT_NE(sim.firstFailure.find(fmt("vector %0", victim)), std::string::npos)
        << sim.firstFailure;
  }
}

// ---- one oracle trace per verify job ------------------------------------

std::vector<CompileJob> table1AndCorpusJobs() {
  struct Source {
    std::string name, text;
    double targetNs = 0;
  };
  std::vector<Source> sources;
  for (const auto& k : bench::kTable1Kernels) {
    sources.push_back({k.name, k.source, k.targetStageDelayNs});
  }
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
    if (e.path().extension() == ".c") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    std::ifstream in(f);
    std::ostringstream text;
    text << in.rdbuf();
    sources.push_back({f.stem().string(), text.str()});
  }
  std::vector<CompileJob> jobs;
  for (const Source& s : sources) {
    for (const int u : {1, 2, 4}) {
      CompileJob job;
      job.name = fmt("%0@u%1", s.name, u);
      job.source = s.text;
      job.options.unrollFactor = u;
      if (s.targetNs > 0) job.options.dpOptions.targetStageDelayNs = s.targetNs;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(SystemTestbench, TraceFormEqualsIoFormOnTable1AndCorpus) {
  const std::vector<CompileJob> jobs = table1AndCorpusJobs();
  ASSERT_GE(jobs.size(), 3u * (9 + 12));
  const BatchResult batch = CompileService(2).compileBatch(jobs);
  const uint64_t seed = VerifyOptions{}.seed;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const CompileResult& r = batch.results[j];
    ASSERT_TRUE(r.ok) << jobs[j].name << ": " << r.diags.dump();
    const interp::KernelIO io = deterministicStimulus(r.kernel, seed);

    vhdl::TestbenchInfo fromIo, fromTrace;
    const auto want = vhdl::makeSystemVectors(r.kernel, r.datapath, io, 8, seed, &fromIo);
    interp::Interpreter sim(r.kernel.dpModule);
    const rtl::StreamTrace trace = rtl::traceStreamingModel(
        r.kernel, r.datapath, io, rtl::interpreterStep(r.kernel, r.datapath, sim));
    const auto got = vhdl::makeSystemVectors(r.kernel, r.datapath, trace, 8, seed, &fromTrace);

    ASSERT_EQ(want.size(), got.size()) << jobs[j].name;
    for (size_t t = 0; t < want.size(); ++t) {
      EXPECT_EQ(want[t].inputs, got[t].inputs) << jobs[j].name << " vector " << t;
      EXPECT_EQ(want[t].expectedOutputs, got[t].expectedOutputs) << jobs[j].name << " vector " << t;
    }
    EXPECT_EQ(fromIo.kernelName, fromTrace.kernelName) << jobs[j].name;
    EXPECT_EQ(fromIo.traceVectors, fromTrace.traceVectors) << jobs[j].name;
    EXPECT_EQ(fromIo.extraVectors, fromTrace.extraVectors) << jobs[j].name;
    EXPECT_EQ(fromIo.seed, fromTrace.seed) << jobs[j].name;
    EXPECT_EQ(vhdl::emitSystemTestbench(r.datapath, r.kernel, want, fromIo),
              vhdl::emitSystemTestbench(r.datapath, r.kernel, got, fromTrace))
        << jobs[j].name;
  }
}

} // namespace
} // namespace roccc
