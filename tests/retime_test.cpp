// Timing-driven latch placement (the greedy cut, stage merging and
// balancing inside `build-datapath`) end to end: every Table 1 and corpus
// kernel, across unroll factors and loose/tight --target-ns budgets, must
// stay 5-way conformant, must gain stages monotonically as the budget
// tightens, and must meet the budget whenever the model says it is
// feasible. Plus the stage-timing report with pipelining off, the merge
// step on feedback kernels, slower model tables and malformed
// --timing-model specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
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

const std::string& sourceOf(std::string_view name) {
  for (const auto& k : allKernels()) {
    if (k.name == name) return k.source;
  }
  throw std::out_of_range("no kernel named " + std::string(name));
}

CompileOptions optionsFor(int unroll, double targetNs) {
  CompileOptions opt;
  opt.unrollFactor = unroll;
  opt.dpOptions.targetStageDelayNs = targetNs;
  return opt;
}

// The full matrix through the 5-engine differential harness: every placement
// is held to the same conformance bar.
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

// Placed designs must also pass their emitted self-checking system
// testbenches (the acceptance bar), checked on the full kernel set at the
// tight budget where placement cuts the most stages.
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
// whenever the report says the budget is feasible the worst stage fits it.
TEST(Retime, StagesAreMonotoneInBudgetAndFeasibleTargetsAreMet) {
  int deeperAndFaster = 0;
  for (const auto& k : allKernels()) {
    for (const int u : kUnrolls) {
      const CompileResult loose = Compiler(optionsFor(u, kLooseNs)).compileSource(k.source);
      ASSERT_TRUE(loose.ok) << k.name << "@u" << u << "\n" << loose.diags.dump();
      const CompileResult tight = Compiler(optionsFor(u, kTightNs)).compileSource(k.source);
      ASSERT_TRUE(tight.ok) << k.name << "@u" << u << "\n" << tight.diags.dump();

      EXPECT_GE(tight.datapath.stageCount, loose.datapath.stageCount) << k.name << "@u" << u;
      for (const auto* d : {&loose.datapath, &tight.datapath}) {
        const dp::StageTiming& r = d->timing;
        if (r.feasible) {
          EXPECT_LE(r.worstStageNs, r.targetNs + 1e-9) << k.name << "@u" << u;
        }
        EXPECT_GT(r.fmaxMHz, 0.0) << k.name << "@u" << u;
        EXPECT_EQ(r.stageDelayNs.size(), static_cast<size_t>(d->stageCount))
            << k.name << "@u" << u;
      }
      if (tight.datapath.stageCount > loose.datapath.stageCount &&
          tight.datapath.timing.fmaxMHz > loose.datapath.timing.fmaxMHz) {
        ++deeperAndFaster;
      }
    }
  }
  // The acceptance criterion: a tight budget buys deeper pipelines with
  // measurably higher modeled fmax on a healthy share of the matrix.
  EXPECT_GE(deeperAndFaster, 5);
}

// In the estimator's view: each Table 1 row at its own target against a
// tight 2 ns budget. The tight budget must buy at least five of the nine
// kernels more stages AND a higher synth::estimate fmax (bit_correlator,
// udiv, square_root, fir, dct and wavelet do); bench/sweeps/target.sweep
// prints the grid. (The monotonicity test above compares the dp-level
// report.)
TEST(Retime, TightBudgetOutstagesAndOutclocksRowTargetsOnTable1) {
  int deeperAndFaster = 0;
  for (const auto& k : bench::kTable1Kernels) {
    CompileOptions rowOpt;
    if (k.targetStageDelayNs > 0) rowOpt.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    const CompileResult row = Compiler(rowOpt).compileSource(k.source);
    ASSERT_TRUE(row.ok) << k.name << "\n" << row.diags.dump();
    const CompileResult tight = Compiler(optionsFor(1, kTightNs)).compileSource(k.source);
    ASSERT_TRUE(tight.ok) << k.name << "\n" << tight.diags.dump();
    if (tight.datapath.stageCount > row.datapath.stageCount &&
        synth::estimate(tight.module).fmaxMHz() > synth::estimate(row.module).fmaxMHz()) {
      ++deeperAndFaster;
    }
  }
  EXPECT_GE(deeperAndFaster, 5);
}

// The merge step: on kernels with a feedback loop the greedy cut alone
// leaves 9 stages at unroll 4 and 4 ns; fusing adjacent stages that fit
// the budget together collapses them.
TEST(Retime, MergeCollapsesFeedbackKernelsAtUnroll4) {
  for (const char* name : {"iir_smooth", "mul_acc"}) {
    const CompileResult r = Compiler(optionsFor(4, 4.0)).compileSource(sourceOf(name));
    ASSERT_TRUE(r.ok) << name << "\n" << r.diags.dump();
    EXPECT_LE(r.datapath.stageCount, 3) << name;
    EXPECT_GT(r.datapath.timing.merges, 0) << name;
  }
}

// With pipelining off the report describes the one stage there is: its real
// delay, and an infeasible verdict when that delay exceeds the target.
TEST(Retime, UnpipelinedReportCarriesTheStageDelay) {
  CompileOptions opt;
  opt.dpOptions.pipeline = false;
  const CompileResult r = Compiler(opt).compileSource(sourceOf("box3x3"));
  ASSERT_TRUE(r.ok) << r.diags.dump();
  const dp::StageTiming& t = r.datapath.timing;
  EXPECT_EQ(r.datapath.stageCount, 1);
  ASSERT_EQ(t.stageDelayNs.size(), 1u);
  EXPECT_DOUBLE_EQ(t.worstStageNs, t.stageDelayNs[0]);
  EXPECT_GT(t.worstStageNs, 4 * t.targetNs);
  EXPECT_LT(t.slackNs, 0.0);
  EXPECT_FALSE(t.feasible);
  EXPECT_DOUBLE_EQ(t.fmaxMHz, 1000.0 / t.criticalPathNs);
}

// Placement against a slower device table must deepen the pipeline for the
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

// A malformed --timing-model spec fails cleanly in build-datapath, where the
// model is resolved, with a line-numbered diagnostic, not a crash or a
// silent fallback.
TEST(Retime, MalformedTimingModelFailsAtBuildDatapath) {
  CompileOptions opt;
  opt.timingModelSpec = "model x\nadd 32 -1 0 0 0\n";
  const CompileResult r = Compiler(opt).compileSource(bench::kFir);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failedPass, "build-datapath");
  EXPECT_NE(r.diags.dump().find("line 2"), std::string::npos) << r.diags.dump();
}

// build-datapath publishes the placement's timing counters through
// PassStatistics like every other declared pass.
TEST(Retime, PassStatisticsCarryTimingCounters) {
  const CompileResult r = Compiler(CompileOptions{}).compileSource(bench::kFir);
  ASSERT_TRUE(r.ok);
  const PassStatistics* build = nullptr;
  for (const auto& s : r.passLog) {
    if (s.name == "build-datapath") build = &s;
  }
  ASSERT_NE(build, nullptr);
  EXPECT_TRUE(build->ran);
  EXPECT_GT(build->counter("fmax-khz"), 0);
  EXPECT_EQ(build->counter("stages"), r.datapath.stageCount);
  EXPECT_EQ(build->counter("feasible"), 1);
  EXPECT_EQ(build->counter("merges"), r.datapath.timing.merges);
  EXPECT_EQ(build->counter("worst-stage-ps"),
            static_cast<int64_t>(r.datapath.timing.worstStageNs * 1000 + 0.5));
}

} // namespace
} // namespace roccc
