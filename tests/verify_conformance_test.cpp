// The differential-conformance acceptance suite: every Table 1 kernel at
// unroll 1/2/4 must pass 5-way agreement (AST interpreter, MIR executor,
// data-path evaluator, reference netlist simulator, FastSim) on the
// deterministic stimulus, with every generated system-level testbench
// self-reporting PASSED under the reference netlist semantics, and the
// whole Table 1 + corpus report pinned byte for byte. Also locks the
// counterexample machinery (a corrupted netlist, data path or MIR must
// produce a minimized disagreement from the engine that runs it, not a
// silent pass) and the soak-mode invariant that a fault-injected job never
// changes sibling verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "../bench/sweep_kernels.hpp"
#include "roccc/verify.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace roccc {

bool g_updateGoldens = false;

namespace {

namespace fs = std::filesystem;

const std::string kReportGolden = std::string(ROCCC_GOLDEN_DIR) + "/verify_report.json";

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

// The full verify report, pinned: Table 1 and tests/corpus at unroll 1, 2
// and 4 with the testbench replay, 66 jobs built as roccc-verify builds
// them, so the golden file is byte for byte what
//
//   roccc-verify --table1 --corpus tests/corpus --unroll 1,2,4
//                --testbench-check --json FILE
//
// writes. Speed work on the engines must not move a verdict, an iteration
// count or a golden digest. After an intentional change:
//
//   ./build/tests/verify_conformance_test --update-goldens
//                --gtest_filter=VerifyConformance.Table1ReportBytesArePinned
//   git diff tests/golden/verify_report.json
//
// (or set ROCCC_UPDATE_GOLDENS=1 in the environment).
TEST(VerifyConformance, Table1ReportBytesArePinned) {
  SweepGrid grid;
  std::string error;
  ASSERT_TRUE(bench::addTable1Kernels({}, true, grid, error)) << error;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(ROCCC_CORPUS_DIR)) {
    if (e.path().extension() == ".c") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::string source;
    ASSERT_TRUE(bench::readTextFile(path.string(), source)) << path;
    grid.kernels.push_back({path.stem().string(), source, 0});
  }
  ASSERT_TRUE(grid.setAxis(OptionId::Unroll, {"1", "2", "4"}, error)) << error;
  std::vector<CompileJob> jobs;
  for (SweepPoint& p : expandGrid(grid)) {
    const int u = p.options.unrollFactor;
    jobs.push_back({u == 1 ? p.kernel : fmt("%0@u%1", p.kernel, u), std::move(p.source),
                    std::move(p.options)});
  }
  ASSERT_EQ(jobs.size(), 66u);

  VerifyOptions opt;
  opt.checkTestbench = true;
  const std::string report = verifyConformance(jobs, opt).toJson();
  if (g_updateGoldens) {
    std::ofstream out(kReportGolden, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kReportGolden;
    out << report;
    return;
  }
  std::string golden;
  ASSERT_TRUE(bench::readTextFile(kReportGolden, golden))
      << "missing golden file " << kReportGolden << " — regenerate with --update-goldens";
  EXPECT_EQ(report, golden);
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

/// Verifies `r` (a fir compile with one fault planted) with every engine
/// and expects the one disagreement to name `engine` at an iteration and a
/// dp output port; with `engine` masked out the same result must agree.
void expectOnlyEngineCatches(const CompileResult& r, VerifyEngine engine) {
  const KernelVerdict v = verifyKernel("fir-corrupt", bench::kFir, r, VerifyOptions{});
  EXPECT_FALSE(v.agree);
  ASSERT_EQ(v.disagreements.size(), 1u);
  const Counterexample& ce = v.disagreements.front();
  EXPECT_EQ(ce.engine, engine) << ce.detail;
  EXPECT_GE(ce.index, 0) << ce.detail;
  EXPECT_LT(ce.index, v.iterations) << ce.detail;
  const auto& ports = r.datapath.outputs;
  EXPECT_TRUE(std::any_of(ports.begin(), ports.end(),
                          [&](const auto& p) { return p.name == ce.port; }))
      << ce.detail;
  EXPECT_NE(ce.expected, ce.got);

  VerifyOptions others;
  others.engineMask &= ~(1u << static_cast<int>(engine));
  const KernelVerdict masked = verifyKernel("fir-corrupt", bench::kFir, r, others);
  EXPECT_TRUE(masked.agree) << (masked.disagreements.empty() ? ""
                                                             : masked.disagreements.front().detail);
}

// Engines 2 and 3 replay engine 1's recorded port inputs; each must still
// catch a fault that only its own representation carries.
TEST(VerifyConformance, CorruptedDatapathImmediateIsCaughtByDpEval) {
  CompileResult r = Compiler().compileSource(bench::kFir);
  ASSERT_TRUE(r.ok);
  // The constant multipliers became shift-adds, so the first live constant
  // is a shift amount; the multiplier constants themselves are dead.
  std::set<int> used;
  for (const auto& op : r.datapath.ops) used.insert(op.operands.begin(), op.operands.end());
  bool flipped = false;
  for (auto& op : r.datapath.ops) {
    if (op.op == mir::Opcode::Ldc && used.count(op.result)) {
      op.imm += 1;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped) << "expected a live constant in the fir data path";
  expectOnlyEngineCatches(r, VerifyEngine::DpEval);
}

TEST(VerifyConformance, CorruptedMirImmediateIsCaughtByMirExec) {
  CompileResult r = Compiler().compileSource(bench::kFir);
  ASSERT_TRUE(r.ok);
  bool flipped = false;
  for (auto& b : r.mir.blocks) {
    for (auto& in : b.instrs) {
      if (!flipped && in.op == mir::Opcode::Ldc && in.imm > 1) {
        in.imm += 1;
        flipped = true;
      }
    }
  }
  ASSERT_TRUE(flipped) << "expected a coefficient constant in the fir MIR";
  expectOnlyEngineCatches(r, VerifyEngine::MirExec);
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

  // Each engine on its own beside the oracle, on a kernel with feedback.
  const CompileResult acc = compiler.compileSource(bench::kMulAcc);
  ASSERT_TRUE(acc.ok);
  ASSERT_FALSE(acc.kernel.feedbacks.empty());
  for (const VerifyEngine e : {VerifyEngine::MirExec, VerifyEngine::DpEval,
                               VerifyEngine::NetlistRef, VerifyEngine::FastSim}) {
    VerifyOptions one;
    one.engineMask = 1u << static_cast<int>(e);
    const KernelVerdict w = verifyKernel("mul_acc", bench::kMulAcc, acc, one);
    EXPECT_TRUE(w.agree) << verifyEngineName(e) << ": "
                         << (w.disagreements.empty() ? "" : w.disagreements.front().detail);
    EXPECT_EQ(w.enginesRun, 2) << verifyEngineName(e);
    EXPECT_EQ(w.iterations, 64) << verifyEngineName(e);
  }
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

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-goldens") == 0) {
      roccc::g_updateGoldens = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (const char* env = std::getenv("ROCCC_UPDATE_GOLDENS")) {
    if (env[0] != '\0' && env[0] != '0') roccc::g_updateGoldens = true;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
