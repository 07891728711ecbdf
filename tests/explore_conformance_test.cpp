// The sweep engine must never recommend a configuration that miscompiles:
// every Pareto-optimal point of the acceptance grid (all nine Table 1
// kernels x unroll {1,2,4} x two stage-delay targets) is re-verified
// through the 5-way differential conformance engine — AST interpreter,
// MIR executor, data-path evaluator, reference netlist, FastSim — and its
// interpreter-derived system testbench must pass.
#include <gtest/gtest.h>

#include "../bench/kernels.hpp"
#include "roccc/explore.hpp"

namespace roccc {
namespace {

SweepGrid acceptanceGrid() {
  SweepGrid grid;
  for (const auto& k : bench::kTable1Kernels) {
    grid.kernels.push_back({k.name, k.source, k.targetStageDelayNs});
  }
  std::string error;
  EXPECT_TRUE(grid.setAxis(OptionId::Unroll, {"1", "2", "4"}, error)) << error;
  // The per-kernel default and one common relaxed target.
  EXPECT_TRUE(grid.setAxis(OptionId::TargetNs, {"0", "8"}, error)) << error;
  return grid;
}

TEST(ExploreConformance, EveryParetoPointPassesFiveWayConformance) {
  const SweepResult sweep = runSweep(acceptanceGrid(), SweepOptions{});
  EXPECT_EQ(sweep.failedCount(), 0) << sweep.outcomeSummary();
  ASSERT_EQ(sweep.frontiers.size(), std::size(bench::kTable1Kernels));
  for (const auto& f : sweep.frontiers) {
    EXPECT_FALSE(f.points.empty()) << f.kernel;
  }

  VerifyOptions opt;
  opt.checkTestbench = true;
  const VerifyReport report = verifyFrontier(sweep, opt);
  // One verdict per frontier point, labeled by the point.
  size_t frontierPoints = 0;
  for (const auto& f : sweep.frontiers) frontierPoints += f.points.size();
  ASSERT_EQ(report.verdicts.size(), frontierPoints);
  EXPECT_EQ(report.compileFailures(), 0);
  EXPECT_TRUE(report.allAgree()) << report.summary();
  for (const auto& v : report.verdicts) {
    EXPECT_TRUE(v.agree) << v.kernel;
    EXPECT_TRUE(v.testbenchPassed) << v.kernel;
    EXPECT_NE(v.kernel.find('@'), std::string::npos)
        << "verdicts must be labeled by sweep point, got '" << v.kernel << "'";
  }
}

TEST(ExploreConformance, FrontierVerdictsSurviveReportRoundTrip) {
  // A one-kernel sweep: the report JSON must carry the frontier labels the
  // conformance verdicts use, so a failing point is traceable end to end.
  SweepGrid grid;
  const auto& fir = bench::kTable1Kernels[6];
  ASSERT_STREQ(fir.name, "fir");
  grid.kernels.push_back({fir.name, fir.source, fir.targetStageDelayNs});
  std::string error;
  ASSERT_TRUE(grid.setAxis(OptionId::Unroll, {"1", "2"}, error)) << error;
  const SweepResult sweep = runSweep(grid, SweepOptions{});
  const VerifyReport report = verifyFrontier(sweep, VerifyOptions{});
  ASSERT_FALSE(report.verdicts.empty());
  const std::string json = sweep.toJson();
  for (const auto& v : report.verdicts) {
    EXPECT_NE(json.find("\"" + v.kernel + "\""), std::string::npos) << v.kernel;
  }
}

} // namespace
} // namespace roccc
