// The differential-conformance acceptance suite: every Table 1 kernel at
// unroll 1/2/4 must pass 5-way agreement (AST interpreter, MIR executor,
// data-path evaluator, reference netlist simulator, FastSim) on the
// deterministic stimulus, with every generated system-level testbench
// self-reporting PASSED under the reference netlist semantics. Also locks
// the counterexample machinery (a corrupted netlist must produce a
// minimized disagreement, not a silent pass) and the soak-mode invariant
// that a fault-injected job never changes sibling verdicts.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/verify.hpp"
#include "support/json.hpp"

namespace roccc {
namespace {

std::vector<CompileJob> table1Jobs(const std::vector<int>& unrolls) {
  std::vector<CompileJob> jobs;
  for (const auto& k : bench::kTable1Kernels) {
    for (const int u : unrolls) {
      CompileJob job;
      job.name = u == 1 ? k.name : k.name + std::string("@u") + std::to_string(u);
      job.source = k.source;
      job.options.unrollFactor = u;
      if (k.targetStageDelayNs > 0) job.options.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

TEST(VerifyConformance, Table1FiveWayAgreementAcrossUnrollFactors) {
  VerifyOptions opt;
  opt.checkTestbench = true;
  const VerifyReport report = verifyConformance(table1Jobs({1, 2, 4}), opt);
  ASSERT_EQ(report.verdicts.size(), 27u);
  EXPECT_EQ(report.compileFailures(), 0);
  for (const auto& v : report.verdicts) {
    EXPECT_TRUE(v.agree) << v.kernel << ": "
                         << (v.disagreements.empty() ? v.compileError
                                                     : v.disagreements.front().detail);
    EXPECT_TRUE(v.testbenchPassed) << v.kernel;
    EXPECT_EQ(v.enginesRun, 5) << v.kernel;
    EXPECT_GT(v.iterations, 0) << v.kernel;
  }
  EXPECT_TRUE(report.allAgree());
  EXPECT_EQ(report.agreed(), 27);
}

// The report bytes for Table 1 at unroll 1 with the testbench replay. The
// verify job's speed work (one oracle trace per job, allocation-free engine
// steps) must not move a verdict, an iteration count or a golden digest.
TEST(VerifyConformance, Table1ReportBytesArePinned) {
  VerifyOptions opt;
  opt.checkTestbench = true;
  const VerifyReport report = verifyConformance(table1Jobs({1}), opt);
  EXPECT_EQ(report.toJson(), R"({
  "kernels": 9,
  "agreed": 9,
  "compileFailures": 0,
  "verdicts": [
    {
      "kernel": "bit_correlator",
      "outcome": "ok",
      "agree": true,
      "testbenchPassed": true,
      "enginesRun": 5,
      "iterations": 64,
      "outputDigest": "5362887572001613501",
      "disagreements": [
      ]
    },
    {
      "kernel": "mul_acc",
      "outcome": "ok",
      "agree": true,
      "testbenchPassed": true,
      "enginesRun": 5,
      "iterations": 64,
      "outputDigest": "5760826716477384048",
      "disagreements": [
      ]
    },
    {
      "kernel": "mul_acc_predicated",
      "outcome": "ok",
      "agree": true,
      "testbenchPassed": true,
      "enginesRun": 5,
      "iterations": 64,
      "outputDigest": "5760826716477384048",
      "disagreements": [
      ]
    },
    {
      "kernel": "udiv",
      "outcome": "ok",
      "agree": true,
      "testbenchPassed": true,
      "enginesRun": 5,
      "iterations": 64,
      "outputDigest": "14658624667340929282",
      "disagreements": [
      ]
    },
    {
      "kernel": "square_root",
      "outcome": "ok",
      "agree": true,
      "testbenchPassed": true,
      "enginesRun": 5,
      "iterations": 64,
      "outputDigest": "1976747578297333165",
      "disagreements": [
      ]
    },
    {
      "kernel": "cos",
      "outcome": "ok",
      "agree": true,
      "testbenchPassed": true,
      "enginesRun": 5,
      "iterations": 64,
      "outputDigest": "9864215328806911935",
      "disagreements": [
      ]
    },
    {
      "kernel": "fir",
      "outcome": "ok",
      "agree": true,
      "testbenchPassed": true,
      "enginesRun": 5,
      "iterations": 64,
      "outputDigest": "6621585900715507222",
      "disagreements": [
      ]
    },
    {
      "kernel": "dct",
      "outcome": "ok",
      "agree": true,
      "testbenchPassed": true,
      "enginesRun": 5,
      "iterations": 8,
      "outputDigest": "1617619072075159373",
      "disagreements": [
      ]
    },
    {
      "kernel": "wavelet",
      "outcome": "ok",
      "agree": true,
      "testbenchPassed": true,
      "enginesRun": 5,
      "iterations": 4096,
      "outputDigest": "672076246571851828",
      "disagreements": [
      ]
    }
  ]
}
)");
}

TEST(VerifyConformance, UnrollingNeverChangesTheOutputDigest) {
  // The paper's transforms are semantics-preserving: the kernel-level
  // results (and hence the digest of the golden outputs) must be identical
  // at every unroll factor.
  const VerifyReport report = verifyConformance(table1Jobs({1, 2, 4}), VerifyOptions{});
  std::map<std::string, uint64_t> base;
  for (const auto& v : report.verdicts) {
    const std::string kernel = v.kernel.substr(0, v.kernel.find('@'));
    const auto [it, fresh] = base.emplace(kernel, v.outputDigest);
    if (!fresh) {
      EXPECT_EQ(it->second, v.outputDigest) << v.kernel << " digest changed under unrolling";
    }
  }
}

// Lut is the one opcode whose evaluation needs a table, and the MIR and
// data-path engines look a table up by name for Lut ops only. A kernel with
// one converted callee and one reading two tables must agree under both.
TEST(VerifyConformance, LutKernelsAgreeUnderMirExecAndDpEval) {
  const char* oneTable = R"(
    void scale(uint6 x, int16* r) { *r = x * 5 - 100; }
    void lut_one(const uint6 A[32], int16 B[32]) {
      int i;
      int16 t;
      for (i = 0; i < 32; i = i + 1) {
        t = 0;
        scale(A[i], t);
        B[i] = t + 1;
      }
    }
  )";
  const char* twoTables = R"(
    const int16 GAMMA[16] = {0, 1, 4, 9, 16, 25, 36, 49, 64, 81, 100, 121, 144, 169, 196, 225};
    void tri(uint5 x, int16* r) { *r = x * (x + 1) / 2; }
    void lut_two(const uint4 A[32], const uint5 B[32], int16 C[32]) {
      int i;
      int16 t;
      for (i = 0; i < 32; i = i + 1) {
        t = 0;
        tri(B[i], t);
        C[i] = GAMMA[A[i]] - t;
      }
    }
  )";
  for (const auto& [source, tables] : {std::pair{oneTable, 1}, std::pair{twoTables, 2}}) {
    const CompileResult r = Compiler().compileSource(source);
    ASSERT_TRUE(r.ok) << r.diags.dump();
    std::set<std::string> mirTables, dpTables;
    for (const auto& b : r.mir.blocks) {
      for (const auto& in : b.instrs) {
        if (in.op == mir::Opcode::Lut) mirTables.insert(in.symbol);
      }
    }
    for (const auto& o : r.datapath.ops) {
      if (o.op == mir::Opcode::Lut) dpTables.insert(o.symbol);
    }
    EXPECT_EQ(mirTables.size(), static_cast<size_t>(tables)) << r.kernel.kernelName;
    EXPECT_EQ(dpTables, mirTables) << r.kernel.kernelName;

    VerifyOptions opt;
    opt.engineMask = (1u << static_cast<int>(VerifyEngine::MirExec)) |
                     (1u << static_cast<int>(VerifyEngine::DpEval));
    const KernelVerdict v = verifyKernel(r.kernel.kernelName, source, r, opt);
    EXPECT_TRUE(v.agree) << r.kernel.kernelName << ": "
                         << (v.disagreements.empty() ? v.compileError
                                                     : v.disagreements.front().detail);
    EXPECT_EQ(v.enginesRun, 3) << r.kernel.kernelName;
    EXPECT_EQ(v.iterations, 32) << r.kernel.kernelName;
  }
}

TEST(VerifyConformance, StimulusIsDeterministicAndSeedSensitive) {
  Compiler compiler;
  const CompileResult r = compiler.compileSource(bench::kFir);
  ASSERT_TRUE(r.ok);
  const interp::KernelIO a = deterministicStimulus(r.kernel, 1);
  const interp::KernelIO b = deterministicStimulus(r.kernel, 1);
  const interp::KernelIO c = deterministicStimulus(r.kernel, 2);
  EXPECT_EQ(a.arrays, b.arrays);
  EXPECT_EQ(a.scalars, b.scalars);
  EXPECT_NE(a.arrays, c.arrays);
}

TEST(VerifyConformance, CorruptedNetlistYieldsMinimizedCounterexample) {
  Compiler compiler;
  CompileResult r = compiler.compileSource(bench::kFir);
  ASSERT_TRUE(r.ok);
  // Flip one constant cell in the module: both netlist engines now compute
  // a different (but mutually consistent) result, so the verdict must be a
  // localized disagreement against the golden model — never a pass.
  bool flipped = false;
  for (auto& cell : r.module.cells) {
    if (cell.kind == rtl::CellKind::Const && cell.imm > 1) {
      cell.imm += 1;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped) << "expected a coefficient constant in the fir netlist";
  const KernelVerdict v = verifyKernel("fir-corrupt", bench::kFir, r, VerifyOptions{});
  EXPECT_FALSE(v.agree);
  ASSERT_FALSE(v.disagreements.empty());
  const Counterexample& ce = v.disagreements.front();
  EXPECT_TRUE(ce.engine == VerifyEngine::NetlistRef || ce.engine == VerifyEngine::FastSim);
  EXPECT_FALSE(ce.port.empty());
  EXPECT_GE(ce.index, 0);
  EXPECT_NE(ce.expected, ce.got);
}

TEST(VerifyConformance, EngineMaskRestrictsWhatRuns) {
  Compiler compiler;
  const CompileResult r = compiler.compileSource(bench::kUdiv);
  ASSERT_TRUE(r.ok);
  VerifyOptions opt;
  opt.engineMask = 1u << static_cast<int>(VerifyEngine::DpEval);
  const KernelVerdict v = verifyKernel("udiv", bench::kUdiv, r, opt);
  EXPECT_TRUE(v.agree) << (v.disagreements.empty() ? "" : v.disagreements.front().detail);
  EXPECT_EQ(v.enginesRun, 2); // the interp oracle + dp-eval
}

TEST(VerifyConformance, CompileFailureIsAVerdictNotAnAbort) {
  std::vector<CompileJob> jobs = table1Jobs({1});
  jobs[3].source = "void broken(";
  const VerifyReport report = verifyConformance(jobs, VerifyOptions{});
  ASSERT_EQ(report.verdicts.size(), jobs.size());
  EXPECT_EQ(report.compileFailures(), 1);
  EXPECT_EQ(report.verdicts[3].outcome, CompileOutcome::FrontendError);
  EXPECT_FALSE(report.verdicts[3].compileError.empty());
  // Every other kernel still verifies.
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(report.verdicts[i].agree) << report.verdicts[i].kernel;
  }
  EXPECT_TRUE(report.allAgree()); // disagreement means a *semantic* split
  EXPECT_FALSE(report.toJson().empty());
}

TEST(VerifyConformance, JsonReportEscapesControlCharacters) {
  VerifyReport report;
  KernelVerdict v;
  v.kernel = "k\r\x01";
  v.outcome = CompileOutcome::FrontendError;
  v.compileError = "error\r\x01";
  Counterexample ce;
  ce.port = "port\r\x01";
  ce.detail = "detail\r\x01";
  v.disagreements.push_back(ce);
  report.verdicts.push_back(v);
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(report.toJson(), doc, error)) << error;
  const json::Value& row = doc.find("verdicts")->items().front();
  EXPECT_EQ(row.find("kernel")->asString(), "k\r\x01");
  EXPECT_EQ(row.find("compileError")->asString(), "error\r\x01");
  const json::Value& d = row.find("disagreements")->items().front();
  EXPECT_EQ(d.find("port")->asString(), "port\r\x01");
  EXPECT_EQ(d.find("detail")->asString(), "detail\r\x01");
}

// The soak invariant (PR-4 harness reuse): arming a fault point on one job
// classifies that job as InternalError and leaves every sibling verdict —
// agreement, iteration count, output digest — bit-identical to a clean run.
TEST(VerifyConformance, InjectedFaultNeverPoisonsSiblingVerdicts) {
  const std::vector<CompileJob> clean = table1Jobs({1});
  const VerifyReport baseline = verifyConformance(clean, VerifyOptions{});
  ASSERT_TRUE(baseline.allAgree());

  for (const char* point : {"dp.build", "mir.ssa", "driver.job"}) {
    for (const size_t victim : {size_t{0}, size_t{4}, size_t{8}}) {
      std::vector<CompileJob> armed = clean;
      armed[victim].options.injectFaultAt = point;
      const VerifyReport report = verifyConformance(armed, VerifyOptions{});
      EXPECT_EQ(report.verdicts[victim].outcome, CompileOutcome::InternalError)
          << point << " on " << clean[victim].name;
      for (size_t i = 0; i < clean.size(); ++i) {
        if (i == victim) continue;
        const auto& base = baseline.verdicts[i];
        const auto& got = report.verdicts[i];
        EXPECT_EQ(base.outcome, got.outcome) << got.kernel;
        EXPECT_EQ(base.agree, got.agree) << got.kernel;
        EXPECT_EQ(base.iterations, got.iterations) << got.kernel;
        EXPECT_EQ(base.outputDigest, got.outputDigest)
            << got.kernel << " poisoned by '" << point << "' on " << clean[victim].name;
      }
    }
  }
}

} // namespace
} // namespace roccc
