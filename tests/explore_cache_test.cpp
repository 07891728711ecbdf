// Sweep-level cache and fault-containment battery (ISSUE 8):
//
//   ExploreCache  — a two-pass sweep over an overlapping grid against one
//                   disk cache directory: the second pass must report
//                   nonzero hits and produce byte-identical reports (the
//                   cache can never change what a sweep observes).
//   ExploreFault  — fault injection at dp.retime and frontend.parse: the
//                   armed point comes back as a typed outcome row in the
//                   JSON without aborting the sweep, and every sibling
//                   point's metrics are unaffected.
#include <gtest/gtest.h>

#include <filesystem>

#include "../bench/kernels.hpp"
#include "roccc/cache.hpp"
#include "roccc/explore.hpp"

namespace roccc {
namespace {

namespace fs = std::filesystem;

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

std::shared_ptr<CompileCache> diskCache(const std::string& dir) {
  CacheConfig cfg;
  cfg.diskDir = dir;
  auto cache = std::make_shared<CompileCache>(cfg);
  EXPECT_TRUE(cache->diskEnabled());
  return cache;
}

TEST(ExploreCache, WarmPassHitsAndStaysByteIdentical) {
  const std::string dir = ::testing::TempDir() + "roccc_explore_cache_warm";
  fs::remove_all(dir);

  SweepOptions cold;
  cold.cache = diskCache(dir);
  const SweepResult first = runSweep(smallGrid(), cold);
  EXPECT_EQ(first.failedCount(), 0) << first.outcomeSummary();
  EXPECT_EQ(first.cacheHits, 0);
  EXPECT_GT(first.cacheMisses, 0);

  // A fresh cache object over the same directory: the disk tier alone must
  // serve the whole overlapping grid.
  SweepOptions warm;
  warm.cache = diskCache(dir);
  const SweepResult second = runSweep(smallGrid(), warm);
  EXPECT_GT(second.cacheHits, 0);
  EXPECT_EQ(second.cacheMisses, 0);
  EXPECT_EQ(first.toJson(), second.toJson());

  // An overlapping-but-larger grid still hits on the shared points.
  SweepGrid bigger = smallGrid();
  std::string error;
  ASSERT_TRUE(bigger.setAxis(OptionId::Unroll, {"1", "2", "4"}, error)) << error;
  SweepOptions third;
  third.cache = diskCache(dir);
  const SweepResult overlapped = runSweep(bigger, third);
  EXPECT_GT(overlapped.cacheHits, 0);
  EXPECT_GT(overlapped.cacheMisses, 0); // the new unroll-4 points
  fs::remove_all(dir);
}

TEST(ExploreCache, SharedCacheAcrossSweepsKeepsInMemoryHits) {
  auto cache = std::make_shared<CompileCache>(CacheConfig{});
  SweepOptions opt;
  opt.cache = cache;
  const SweepResult first = runSweep(smallGrid(), opt);
  const SweepResult second = runSweep(smallGrid(), opt);
  EXPECT_EQ(first.cacheHits, 0);
  EXPECT_GT(second.cacheHits, 0);
  EXPECT_EQ(second.cacheMisses, 0);
  EXPECT_EQ(first.toJson(), second.toJson());
}

// --- fault containment -------------------------------------------------------

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

TEST(ExploreFault, RetimeFaultIsATypedRowSiblingsUnaffected) {
  const SweepResult clean = runSweep(smallGrid(), SweepOptions{});
  ASSERT_EQ(clean.failedCount(), 0) << clean.outcomeSummary();

  const SweepResult faulted = sweepWithFaultAt("fir@u2/ns4", "dp.retime");
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
  EXPECT_NE(faulted.toJson().find("\"outcome\": \"internal-error\""), std::string::npos);
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

TEST(ExploreFault, FaultedSweepAgainstACacheDoesNotPoisonIt) {
  // Fault-injected compiles are never cached (cache_test.cpp), so a soak
  // against a shared cache leaves clean reruns clean.
  auto cache = std::make_shared<CompileCache>(CacheConfig{});
  std::vector<SweepPoint> points = expandGrid(smallGrid());
  for (auto& p : points) {
    if (p.label == "fir@u1/ns4") p.options.injectFaultAt = "dp.retime";
  }
  SweepOptions opt;
  opt.cache = cache;
  const SweepResult faulted = runSweep(points, opt);
  EXPECT_EQ(faulted.failedCount(), 1);

  const SweepResult clean = runSweep(smallGrid(), opt);
  EXPECT_EQ(clean.failedCount(), 0) << clean.outcomeSummary();
}

} // namespace
} // namespace roccc
