// Timing-driven register placement (the `retime` pass) end to end: every
// Table 1 and corpus kernel, across unroll factors and loose/tight
// --target-ns budgets, must stay 5-way conformant after retiming, must gain
// stages monotonically as the budget tightens, and must meet the budget
// whenever the model says it is feasible. Plus the ablation/failure knobs:
// retime off (and its floor against a tight budget), slower model tables,
// and malformed --timing-model specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/compiler.hpp"
#include "roccc/verify.hpp"
#include "synth/estimate.hpp"
#include "synth/timing.hpp"

namespace roccc {
namespace {

constexpr double kLooseNs = 12.0;
constexpr double kTightNs = 2.0;
constexpr int kUnrolls[] = {1, 2, 4};

struct SourceKernel {
  std::string name;
  std::string source;
};

const std::vector<SourceKernel>& allKernels() {
  static const std::vector<SourceKernel> kernels = [] {
    std::vector<SourceKernel> out;
    for (const auto& k : bench::kTable1Kernels) out.push_back({k.name, k.source});
    std::vector<SourceKernel> corpus;
    for (const auto& entry : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
      if (entry.path().extension() != ".c") continue;
      std::ifstream in(entry.path());
      std::ostringstream buf;
      buf << in.rdbuf();
      corpus.push_back({entry.path().stem().string(), buf.str()});
    }
    std::sort(corpus.begin(), corpus.end(),
              [](const SourceKernel& a, const SourceKernel& b) { return a.name < b.name; });
    out.insert(out.end(), corpus.begin(), corpus.end());
    return out;
  }();
  return kernels;
}

CompileOptions optionsFor(int unroll, double targetNs) {
  CompileOptions opt;
  opt.unrollFactor = unroll;
  opt.dpOptions.targetStageDelayNs = targetNs;
  return opt;
}

// The full matrix through the 5-engine differential harness: a retimed
// design is held to exactly the same conformance bar as the fixed staging.
TEST(Retime, FiveWayConformanceAcrossUnrollAndTargetMatrix) {
  std::vector<CompileJob> jobs;
  for (const auto& k : allKernels()) {
    for (const int u : kUnrolls) {
      for (const double t : {kLooseNs, kTightNs}) {
        CompileJob job;
        job.name = k.name + "@u" + std::to_string(u) + (t == kTightNs ? "@tight" : "@loose");
        job.source = k.source;
        job.options = optionsFor(u, t);
        jobs.push_back(std::move(job));
      }
    }
  }
  const VerifyReport report = verifyConformance(jobs, VerifyOptions{});
  ASSERT_EQ(report.verdicts.size(), jobs.size());
  for (const auto& v : report.verdicts) {
    EXPECT_EQ(v.outcome, CompileOutcome::Ok) << v.kernel << ": " << v.compileError;
    EXPECT_TRUE(v.agree) << v.kernel << ": "
                         << (v.disagreements.empty() ? "" : v.disagreements.front().detail);
    EXPECT_EQ(v.enginesRun, 5) << v.kernel;
  }
}

// Retimed designs must also pass their emitted self-checking system
// testbenches (the acceptance bar), checked on the full kernel set at the
// tight budget where retiming moves the most registers.
TEST(Retime, TightBudgetDesignsPassSystemTestbenches) {
  std::vector<CompileJob> jobs;
  for (const auto& k : allKernels()) {
    CompileJob job;
    job.name = k.name;
    job.source = k.source;
    job.options = optionsFor(1, kTightNs);
    jobs.push_back(std::move(job));
  }
  VerifyOptions opt;
  opt.checkTestbench = true;
  const VerifyReport report = verifyConformance(jobs, opt);
  for (const auto& v : report.verdicts) {
    EXPECT_EQ(v.outcome, CompileOutcome::Ok) << v.kernel << ": " << v.compileError;
    EXPECT_TRUE(v.agree) << v.kernel;
    EXPECT_TRUE(v.testbenchPassed) << v.kernel;
  }
}

// Tightening the budget can only deepen (or keep) the pipeline, and
// whenever the pass reports a feasible budget the worst stage must fit it.
TEST(Retime, StagesAreMonotoneInBudgetAndFeasibleTargetsAreMet) {
  int deeperAndFaster = 0;
  for (const auto& k : allKernels()) {
    for (const int u : kUnrolls) {
      const CompileResult loose = Compiler(optionsFor(u, kLooseNs)).compileSource(k.source);
      ASSERT_TRUE(loose.ok) << k.name << "@u" << u << "\n" << loose.diags.dump();
      const CompileResult tight = Compiler(optionsFor(u, kTightNs)).compileSource(k.source);
      ASSERT_TRUE(tight.ok) << k.name << "@u" << u << "\n" << tight.diags.dump();

      ASSERT_TRUE(loose.retiming.run);
      ASSERT_TRUE(tight.retiming.run);
      EXPECT_GE(tight.datapath.stageCount, loose.datapath.stageCount) << k.name << "@u" << u;
      for (const auto* r : {&loose.retiming, &tight.retiming}) {
        if (r->feasible) {
          EXPECT_LE(r->worstStageNs, r->targetNs + 1e-9) << k.name << "@u" << u;
        }
        EXPECT_GT(r->fmaxMHz, 0.0) << k.name << "@u" << u;
        EXPECT_EQ(r->stageDelayNs.size(), static_cast<size_t>(r->stagesAfter))
            << k.name << "@u" << u;
      }
      if (tight.datapath.stageCount > loose.datapath.stageCount &&
          tight.retiming.fmaxMHz > loose.retiming.fmaxMHz) {
        ++deeperAndFaster;
      }
    }
  }
  // The acceptance criterion: a tight budget buys deeper pipelines with
  // measurably higher modeled fmax on a healthy share of the matrix.
  EXPECT_GE(deeperAndFaster, 5);
}

// The retiming ablation in the estimator's view: fixed greedy staging at
// each Table 1 row's target against retime at a tight 2 ns budget. The
// tight budget must buy at least five of the nine kernels more stages AND
// a higher synth::estimate fmax; bench/sweeps/retime.sweep prints the grid.
// (The monotonicity test above compares the retimer's own dp-level view.)
TEST(Retime, TightBudgetOutstagesAndOutclocksFixedStagingOnTable1) {
  int deeperAndFaster = 0;
  for (const auto& k : bench::kTable1Kernels) {
    CompileOptions fixedOpt;
    fixedOpt.retimePipeline = false;
    if (k.targetStageDelayNs > 0) fixedOpt.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    const CompileResult fixed = Compiler(fixedOpt).compileSource(k.source);
    ASSERT_TRUE(fixed.ok) << k.name << "\n" << fixed.diags.dump();
    const CompileResult tight = Compiler(optionsFor(1, kTightNs)).compileSource(k.source);
    ASSERT_TRUE(tight.ok) << k.name << "\n" << tight.diags.dump();
    if (tight.datapath.stageCount > fixed.datapath.stageCount &&
        synth::estimate(tight.module).fmaxMHz() > synth::estimate(fixed.module).fmaxMHz()) {
      ++deeperAndFaster;
    }
  }
  EXPECT_GE(deeperAndFaster, 5);
}

// The ablation knob: with retiming disabled the fixed greedy staging still
// conforms, and the pass reports itself as not run.
TEST(Retime, DisabledRetimingStillConforms) {
  std::vector<CompileJob> jobs;
  for (const auto& k : bench::kTable1Kernels) {
    CompileJob job;
    job.name = k.name;
    job.source = k.source;
    job.options.retimePipeline = false;
    if (k.targetStageDelayNs > 0) job.options.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    jobs.push_back(std::move(job));
  }
  const VerifyReport report = verifyConformance(jobs, VerifyOptions{});
  for (const auto& v : report.verdicts) {
    EXPECT_EQ(v.outcome, CompileOutcome::Ok) << v.kernel << ": " << v.compileError;
    EXPECT_TRUE(v.agree) << v.kernel;
  }
  CompileOptions opt;
  opt.retimePipeline = false;
  const CompileResult r = Compiler(opt).compileSource(bench::kFir);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.retiming.run);
}

// Retiming against a slower device table must deepen the pipeline for the
// same budget — the model, not a constant, decides register placement.
TEST(Retime, SlowerTimingModelDeepensThePipeline) {
  const CompileResult base = Compiler(CompileOptions{}).compileSource(bench::kFir);
  ASSERT_TRUE(base.ok);
  CompileOptions slow;
  slow.timingModelSpec = "model slow-fabric\n"
                         "add 32 3.9 0 32 0\n"
                         "mul-lut 32 7.5 0 563 0\n";
  const CompileResult r = Compiler(slow).compileSource(bench::kFir);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  EXPECT_GT(r.datapath.stageCount, base.datapath.stageCount);
}

// A malformed --timing-model spec fails cleanly inside the retime pass with
// a line-numbered diagnostic, not a crash or a silent fallback.
TEST(Retime, MalformedTimingModelFailsAtTheRetimePass) {
  CompileOptions opt;
  opt.timingModelSpec = "model x\nadd 32 -1 0 0 0\n";
  const CompileResult r = Compiler(opt).compileSource(bench::kFir);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failedPass, "retime");
  EXPECT_NE(r.diags.dump().find("line 2"), std::string::npos) << r.diags.dump();
}

// The retime pass publishes its stage/fmax counters through PassStatistics
// like every other declared pass.
TEST(Retime, PassStatisticsCarryTimingCounters) {
  const CompileResult r = Compiler(CompileOptions{}).compileSource(bench::kFir);
  ASSERT_TRUE(r.ok);
  const PassStatistics* retime = nullptr;
  for (const auto& s : r.passLog) {
    if (s.name == "retime") retime = &s;
  }
  ASSERT_NE(retime, nullptr);
  EXPECT_TRUE(retime->ran);
  bool sawFmax = false, sawStages = false;
  for (const auto& [key, value] : retime->counters) {
    if (key == "fmax-khz") sawFmax = value > 0;
    if (key == "stages-after") sawStages = value >= 0;
  }
  EXPECT_TRUE(sawFmax);
  EXPECT_TRUE(sawStages);
}

} // namespace
} // namespace roccc
