// The sweep engine's unit battery (ISSUE 8): grid expansion (cross
// product, dedup, option canonicalization), Pareto-frontier correctness on
// hand-built metric sets, manifest parsing with line-numbered errors, and
// the headline determinism guarantee — the same grid run on 1 worker and
// 8 workers yields byte-identical JSON.
#include "roccc/explore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../bench/kernels.hpp"
#include "roccc/cache.hpp"
#include "support/json.hpp"

namespace roccc {
namespace {

const char* kFirSource = R"(void fir(const int16 A[36], int16 C[32]) {
  int i;
  for (i = 0; i < 32; i = i + 1) {
    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
  }
})";

SweepGrid firGrid() {
  SweepGrid grid;
  grid.kernels.push_back({"fir", kFirSource, 0});
  return grid;
}

// --- grid expansion ----------------------------------------------------------

TEST(ExploreGrid, SingleKernelDefaultGridIsOneCompile) {
  const auto points = expandGrid(firGrid());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].kernel, "fir");
  EXPECT_EQ(points[0].label, "fir@u1/ns4");
  EXPECT_EQ(points[0].config.unroll, 1);
  // A 0-valued target axis resolves to the BuildOptions default.
  EXPECT_DOUBLE_EQ(points[0].config.targetNs, 4.0);
  EXPECT_DOUBLE_EQ(points[0].options.dpOptions.targetStageDelayNs, 4.0);
}

TEST(ExploreGrid, CrossProductCoversEveryAxisCombination) {
  SweepGrid grid = firGrid();
  grid.unrolls = {1, 2, 4};
  grid.targetNs = {2.0, 4.0};
  grid.smartBuffer = {true, false};
  const auto points = expandGrid(grid);
  EXPECT_EQ(points.size(), 3u * 2u * 2u);
  std::set<std::string> labels;
  for (const auto& p : points) labels.insert(p.label);
  EXPECT_EQ(labels.size(), points.size()) << "labels must be unique within a sweep";
  EXPECT_TRUE(labels.count("fir@u2/ns2"));
  EXPECT_TRUE(labels.count("fir@u4/ns4/naive"));
}

TEST(ExploreGrid, DuplicateAxisValuesDedupToOnePoint) {
  SweepGrid grid = firGrid();
  grid.unrolls = {2, 2, 2};
  EXPECT_EQ(expandGrid(grid).size(), 1u);
}

TEST(ExploreGrid, DefaultTargetAndItsExplicitSpellingDedup) {
  // 0 resolves to the compiler default 4.0, so {0, 4.0} is one point —
  // dedup is semantic (content-addressed compile key), not syntactic.
  SweepGrid grid = firGrid();
  grid.targetNs = {0, 4.0};
  EXPECT_EQ(expandGrid(grid).size(), 1u);
}

TEST(ExploreGrid, PerKernelDefaultTargetResolvesThroughZero) {
  SweepGrid grid;
  grid.kernels.push_back({"dct", "", 7.5});
  grid.kernels[0].source = kFirSource; // source content irrelevant to resolution
  grid.targetNs = {0};
  const auto points = expandGrid(grid);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].config.targetNs, 7.5);
  EXPECT_EQ(points[0].label, "dct@u1/ns7.5");
}

TEST(ExploreGrid, OptionCanonicalizationReachesCompileOptions) {
  SweepGrid grid = firGrid();
  grid.retime = {false};
  grid.pipeline = {false};
  grid.widthModes = {SweepGrid::WidthMode::Declared};
  grid.multStyles = {dp::BuildOptions::MultStyle::Mult18};
  const auto points = expandGrid(grid);
  ASSERT_EQ(points.size(), 1u);
  const CompileOptions& o = points[0].options;
  EXPECT_FALSE(o.retimePipeline);
  EXPECT_FALSE(o.dpOptions.pipeline);
  EXPECT_FALSE(o.dpOptions.inferBitWidths);
  EXPECT_EQ(o.dpOptions.multStyle, dp::BuildOptions::MultStyle::Mult18);
  EXPECT_EQ(points[0].label, "fir@u1/ns4/noretime/nopipe/declared/mult18");
}

TEST(ExploreGrid, GeometryVariesThePointButNotTheCompileKey) {
  // Smart-buffer geometry is a system-level knob — same compiled design,
  // different measurement — so dedup must keep geometry-distinct points
  // even though their compile keys collide.
  SweepGrid grid = firGrid();
  grid.busElems = {1, 2};
  grid.smartBuffer = {true, false};
  const auto points = expandGrid(grid);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(computeCacheKey(points[0].source, points[0].options),
            computeCacheKey(points[3].source, points[3].options));
}

TEST(ExploreGrid, ExpansionOrderIsDeterministic) {
  SweepGrid grid = firGrid();
  grid.unrolls = {4, 1, 2};
  grid.targetNs = {8.0, 2.0};
  const auto a = expandGrid(grid);
  const auto b = expandGrid(grid);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].label, b[i].label);
  // Axis-value order is preserved, not sorted: the declared grid is the
  // report's row order.
  EXPECT_EQ(a[0].label, "fir@u4/ns8");
}

// --- Pareto frontier ---------------------------------------------------------

TEST(ExplorePareto, DominatedPointsAreRemoved) {
  // (slices, cycles) both minimized: (1,9) (2,8) are the frontier;
  // (3,9) is dominated by both, (2,9) by (2,8).
  const std::vector<std::vector<double>> rows = {{1, 9}, {3, 9}, {2, 8}, {2, 9}};
  const auto f = paretoFrontier(rows, {false, false});
  EXPECT_EQ(f, (std::vector<size_t>{0, 2}));
}

TEST(ExplorePareto, IdenticalRowsBothStay) {
  const std::vector<std::vector<double>> rows = {{5, 5}, {5, 5}, {6, 6}};
  const auto f = paretoFrontier(rows, {false, false});
  EXPECT_EQ(f, (std::vector<size_t>{0, 1}));
}

TEST(ExplorePareto, SingleAxisDegeneratesToAllBestValues) {
  const std::vector<std::vector<double>> rows = {{3}, {1}, {1}, {2}};
  const auto f = paretoFrontier(rows, {false});
  EXPECT_EQ(f, (std::vector<size_t>{1, 2}));
}

TEST(ExplorePareto, MaximizeAxisFlipsDirection) {
  // (slices min, fmax max): (10, 200) and (5, 100) are both optimal;
  // (10, 100) is dominated by each.
  const std::vector<std::vector<double>> rows = {{10, 200}, {5, 100}, {10, 100}};
  const auto f = paretoFrontier(rows, {false, true});
  EXPECT_EQ(f, (std::vector<size_t>{0, 1}));
}

TEST(ExplorePareto, EveryAxisNameRoundTrips) {
  for (int a = 0; a < kSweepAxisCount; ++a) {
    const auto axis = static_cast<SweepAxis>(a);
    SweepAxis parsed;
    ASSERT_TRUE(parseSweepAxis(sweepAxisName(axis), parsed)) << sweepAxisName(axis);
    EXPECT_EQ(parsed, axis);
  }
  SweepAxis unused;
  EXPECT_FALSE(parseSweepAxis("slises", unused));
}

// --- manifest parsing --------------------------------------------------------

TEST(ExploreManifest, ParsesEveryDirective) {
  const std::string text =
      "# stock unroll sweep\n"
      "table1 fir dct\n"
      "kernel tap3 kernels/tap3.c\n"
      "unroll 1,2 4\n"
      "auto-unroll-budget 0 1000\n"
      "target-ns 0,8\n"
      "retime on off\n"
      "pipeline on\n"
      "optimize on\n"
      "lut-convert off\n"
      "width-mode declared paper range\n"
      "mult-style lut,mult18\n"
      "bus-elems 1 2\n"
      "smart-buffer on off\n"
      "axes slices,fmax,cycles\n"
      "seed 0x2005\n";
  SweepManifest m;
  std::string error;
  ASSERT_TRUE(parseSweepManifest(text, m, error)) << error;
  EXPECT_EQ(m.table1, (std::vector<std::string>{"fir", "dct"}));
  ASSERT_EQ(m.kernelFiles.size(), 1u);
  EXPECT_EQ(m.kernelFiles[0].name, "tap3");
  EXPECT_EQ(m.kernelFiles[0].path, "kernels/tap3.c");
  EXPECT_EQ(m.grid.unrolls, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(m.grid.autoUnrollBudgets, (std::vector<int64_t>{0, 1000}));
  EXPECT_EQ(m.grid.targetNs, (std::vector<double>{0, 8}));
  EXPECT_EQ(m.grid.retime, (std::vector<bool>{true, false}));
  EXPECT_EQ(m.grid.lutConvert, (std::vector<bool>{false}));
  EXPECT_EQ(m.grid.widthModes.size(), 3u);
  EXPECT_EQ(m.grid.multStyles.size(), 2u);
  EXPECT_EQ(m.grid.busElems, (std::vector<int>{1, 2}));
  EXPECT_EQ(m.axes.size(), 3u);
  EXPECT_TRUE(m.seedSet);
  EXPECT_EQ(m.seed, 0x2005u);
  EXPECT_FALSE(m.table1All);
}

TEST(ExploreManifest, BareTable1MeansAllKernels) {
  SweepManifest m;
  std::string error;
  ASSERT_TRUE(parseSweepManifest("table1\n", m, error)) << error;
  EXPECT_TRUE(m.table1All);
}

TEST(ExploreManifest, ErrorsCarryLineNumbers) {
  SweepManifest m;
  std::string error;
  // Line 3 (after a comment and a valid line) misspells a directive.
  EXPECT_FALSE(parseSweepManifest("# header\nunroll 1 2\nunrol 4\n", m, error));
  EXPECT_TRUE(error.rfind("line 3:", 0) == 0) << error;
  EXPECT_NE(error.find("unrol"), std::string::npos) << error;

  EXPECT_FALSE(parseSweepManifest("unroll 1 zero\n", m, error));
  EXPECT_TRUE(error.rfind("line 1:", 0) == 0) << error;

  EXPECT_FALSE(parseSweepManifest("retime maybe\n", m, error));
  EXPECT_TRUE(error.rfind("line 1:", 0) == 0) << error;

  EXPECT_FALSE(parseSweepManifest("kernel tap3\n", m, error));
  EXPECT_NE(error.find("NAME and PATH"), std::string::npos) << error;

  EXPECT_FALSE(parseSweepManifest("seed 1 2\n", m, error));
  EXPECT_TRUE(error.rfind("line 1:", 0) == 0) << error;
}

TEST(ExploreManifest, RepeatedAxisDirectiveIsAnError) {
  SweepManifest m;
  std::string error;
  EXPECT_FALSE(parseSweepManifest("unroll 1\nunroll 2\n", m, error));
  EXPECT_TRUE(error.rfind("line 2:", 0) == 0) << error;
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  // kernel and table1 accumulate, so repeats are fine.
  ASSERT_TRUE(parseSweepManifest("kernel a a.c\nkernel b b.c\ntable1 fir\ntable1 dct\n", m, error))
      << error;
  EXPECT_EQ(m.kernelFiles.size(), 2u);
  EXPECT_EQ(m.table1.size(), 2u);
}

TEST(ExploreManifest, UnknownAxisNamesTheLine) {
  SweepManifest m;
  std::string error;
  EXPECT_FALSE(parseSweepManifest("\n\naxes slices,speed\n", m, error));
  EXPECT_TRUE(error.rfind("line 3:", 0) == 0) << error;
  EXPECT_NE(error.find("speed"), std::string::npos) << error;
}

// --- sweep execution + determinism -------------------------------------------

TEST(ExploreDeterminism, JsonIsByteIdenticalAcrossWorkerCounts) {
  SweepGrid grid = firGrid();
  grid.unrolls = {1, 2, 4};
  grid.targetNs = {4.0, 8.0};

  SweepOptions one;
  one.workers = 1;
  SweepOptions eight;
  eight.workers = 8;
  const SweepResult a = runSweep(grid, one);
  const SweepResult b = runSweep(grid, eight);
  EXPECT_EQ(a.toJson(), b.toJson());
  // Wall-time fields are exempt — they live only in the timings form.
  EXPECT_NE(a.toJson(true).find("\"run\""), std::string::npos);
  EXPECT_EQ(a.toJson().find("\"wallMs\""), std::string::npos);
  EXPECT_EQ(a.toJson().find("\"compileMs\""), std::string::npos);
}

TEST(ExploreDeterminism, MetricsAndFrontierAreStable) {
  SweepGrid grid = firGrid();
  grid.unrolls = {1, 2};
  const SweepResult sweep = runSweep(grid, SweepOptions{});
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.okCount(), 2);
  for (const auto& p : sweep.points) {
    EXPECT_GT(p.metrics.slices, 0) << p.point.label;
    EXPECT_GT(p.metrics.fmaxMHz, 0) << p.point.label;
    EXPECT_GT(p.metrics.cycles, 0) << p.point.label;
    EXPECT_GT(p.metrics.energyPjPerCycle, 0) << p.point.label;
  }
  // Unrolling doubles throughput and area for FIR; the frontier keeps both
  // points (area vs cycles trade) and the JSON names them.
  ASSERT_EQ(sweep.frontiers.size(), 1u);
  EXPECT_FALSE(sweep.frontiers[0].points.empty());
  const std::string json = sweep.toJson();
  EXPECT_NE(json.find("\"schema\": \"roccc-sweep-v1\""), std::string::npos);
  EXPECT_NE(json.find("fir@u1/ns4"), std::string::npos);
  EXPECT_NE(json.find("fir@u2/ns4"), std::string::npos);
}

TEST(ExploreDeterminism, CollectCyclesOffLeavesCycleMetricsZero) {
  SweepGrid grid = firGrid();
  SweepOptions opt;
  opt.collectCycles = false;
  const SweepResult sweep = runSweep(grid, opt);
  ASSERT_EQ(sweep.points.size(), 1u);
  EXPECT_EQ(sweep.points[0].outcome, PointOutcome::Ok);
  EXPECT_EQ(sweep.points[0].metrics.cycles, 0);
  EXPECT_GT(sweep.points[0].metrics.slices, 0);
}

TEST(ExploreDeterminism, BestConfigMinimizesRuntimeThenArea) {
  // Hand-built: give the sweep a grid where unroll 2 halves cycles —
  // best must pick it over the smaller unroll-1 design.
  SweepGrid grid = firGrid();
  grid.unrolls = {1, 2};
  SweepOptions opt;
  opt.axes = {SweepAxis::Slices, SweepAxis::Cycles};
  const SweepResult sweep = runSweep(grid, opt);
  ASSERT_EQ(sweep.frontiers.size(), 1u);
  const KernelFrontier& f = sweep.frontiers[0];
  ASSERT_FALSE(f.points.empty());
  double bestRuntime = 1e300;
  for (size_t idx : f.points) {
    const PointMetrics& m = sweep.points[idx].metrics;
    bestRuntime = std::min(bestRuntime,
                           static_cast<double>(m.cycles) * m.criticalPathNs);
  }
  const PointMetrics& chosen = sweep.points[f.best].metrics;
  EXPECT_DOUBLE_EQ(static_cast<double>(chosen.cycles) * chosen.criticalPathNs, bestRuntime);
  EXPECT_NE(sweep.bestReport().find("fir"), std::string::npos);
}

TEST(ExploreDeterminism, OutcomeSummaryCountsEveryPoint) {
  SweepGrid grid = firGrid();
  grid.kernels.push_back({"broken", "void broken(int", 0});
  const SweepResult sweep = runSweep(grid, SweepOptions{});
  EXPECT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.okCount(), 1);
  EXPECT_EQ(sweep.failedCount(), 1);
  EXPECT_NE(sweep.outcomeSummary().find("1 ok"), std::string::npos);
  EXPECT_NE(sweep.outcomeSummary().find("frontend-error"), std::string::npos);
  // The failed point appears in the table and the JSON — never dropped.
  EXPECT_NE(sweep.table().find("broken"), std::string::npos);
  EXPECT_NE(sweep.toJson().find("\"outcome\": \"frontend-error\""), std::string::npos);
  // A kernel with no viable point still gets a frontier row.
  ASSERT_EQ(sweep.frontiers.size(), 2u);
  EXPECT_TRUE(sweep.frontiers[1].points.empty());
  EXPECT_NE(sweep.bestReport().find("no viable point"), std::string::npos);
}

TEST(ExploreDeterminism, JsonEscapesControlCharactersInNamesAndErrors) {
  SweepResult sweep;
  SweepPointResult p;
  p.point.kernel = "k\r\x01";
  p.point.label = "label\r\x01";
  p.outcome = PointOutcome::FrontendError;
  p.error = "error\r\x01";
  sweep.points.push_back(p);
  sweep.frontiers.push_back({"k\r\x01", {0}, 0});
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(sweep.toJson(), doc, error)) << error;
  const json::Value& row = doc.find("results")->items().front();
  EXPECT_EQ(row.find("kernel")->asString(), "k\r\x01");
  EXPECT_EQ(row.find("label")->asString(), "label\r\x01");
  EXPECT_EQ(row.find("error")->asString(), "error\r\x01");
  EXPECT_EQ(doc.find("frontiers")->items().front().find("best")->asString(), "label\r\x01");
}

} // namespace
} // namespace roccc
