// Sweep fault containment: fault injection at dp.build and frontend.parse.
// The armed point comes back as a typed outcome row in the JSON without
// aborting the sweep, and every sibling point's metrics are unaffected.
#include <gtest/gtest.h>

#include "../bench/kernels.hpp"
#include "roccc/explore.hpp"

namespace roccc {
namespace {

SweepGrid smallGrid() {
  SweepGrid grid;
  for (const char* name : {"fir", "udiv"}) {
    for (const auto& k : bench::kTable1Kernels) {
      if (std::string(name) == k.name) {
        grid.kernels.push_back({k.name, k.source, k.targetStageDelayNs});
      }
    }
  }
  std::string error;
  EXPECT_TRUE(grid.setAxis(OptionId::Unroll, {"1", "2"}, error)) << error;
  return grid;
}

/// Arms `faultPoint` on the single point whose label matches, leaving every
/// sibling untouched, and returns the sweep.
SweepResult sweepWithFaultAt(const std::string& label, const std::string& faultPoint) {
  std::vector<SweepPoint> points = expandGrid(smallGrid());
  bool armed = false;
  for (auto& p : points) {
    if (p.label == label) {
      p.options.injectFaultAt = faultPoint;
      armed = true;
    }
  }
  EXPECT_TRUE(armed) << label;
  return runSweep(points, SweepOptions{});
}

TEST(ExploreFault, DatapathFaultIsATypedRowSiblingsUnaffected) {
  const SweepResult clean = runSweep(smallGrid(), SweepOptions{});
  ASSERT_EQ(clean.failedCount(), 0) << clean.outcomeSummary();

  const SweepResult faulted = sweepWithFaultAt("fir@u2/ns4", "dp.build");
  ASSERT_EQ(faulted.points.size(), clean.points.size());
  int failed = 0;
  for (size_t i = 0; i < faulted.points.size(); ++i) {
    const SweepPointResult& f = faulted.points[i];
    const SweepPointResult& c = clean.points[i];
    ASSERT_EQ(f.point.label, c.point.label);
    if (f.point.label == "fir@u2/ns4") {
      ++failed;
      EXPECT_EQ(f.outcome, PointOutcome::InternalError);
      EXPECT_FALSE(f.error.empty());
    } else {
      EXPECT_EQ(f.outcome, PointOutcome::Ok) << f.point.label;
      EXPECT_EQ(f.metrics.slices, c.metrics.slices) << f.point.label;
      EXPECT_EQ(f.metrics.cycles, c.metrics.cycles) << f.point.label;
      EXPECT_DOUBLE_EQ(f.metrics.fmaxMHz, c.metrics.fmaxMHz) << f.point.label;
    }
  }
  EXPECT_EQ(failed, 1);
  // The typed outcome is in the JSON — a faulted sweep reports, not aborts.
  EXPECT_NE(faulted.toJson().pretty().find("\"outcome\": \"internal-error\""), std::string::npos);
  // The faulted point is off the frontier; the kernel still has one.
  for (const auto& fr : faulted.frontiers) EXPECT_FALSE(fr.points.empty()) << fr.kernel;
}

TEST(ExploreFault, FrontendFaultIsContainedToo) {
  const SweepResult faulted = sweepWithFaultAt("udiv@u1/ns3", "frontend.parse");
  EXPECT_EQ(faulted.failedCount(), 1) << faulted.outcomeSummary();
  for (const auto& p : faulted.points) {
    if (p.point.label == "udiv@u1/ns3") {
      EXPECT_EQ(p.outcome, PointOutcome::InternalError);
    } else {
      EXPECT_EQ(p.outcome, PointOutcome::Ok) << p.point.label;
    }
  }
}

} // namespace
} // namespace roccc
