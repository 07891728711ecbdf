// The sweep engine's unit battery (ISSUE 8): grid expansion (cross
// product, dedup, option canonicalization), Pareto-frontier correctness on
// hand-built metric sets, manifest parsing with line-numbered errors, and
// the headline determinism guarantee — the same grid run on 1 worker and
// 8 workers yields byte-identical JSON.
#include "roccc/explore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "../bench/kernels.hpp"
#include "roccc/cache.hpp"
#include "roccc/compiler.hpp"
#include "support/json.hpp"
#include "synth/estimate.hpp"

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

/// Sets an axis from grid-file tokens; the values must be valid.
void setAxis(SweepGrid& grid, OptionId id, const std::vector<std::string>& tokens) {
  std::string error;
  ASSERT_TRUE(grid.setAxis(id, tokens, error)) << error;
}

/// An axis's values as "v1,v2,...", protocol JSON each; "" when unset.
std::string axisText(const SweepGrid& grid, OptionId id) {
  std::string text;
  for (const SweepGrid::Axis& axis : grid.axes) {
    if (axis.id != id) continue;
    for (const json::Value& v : axis.values) text += (text.empty() ? "" : ",") + v.dump();
  }
  return text;
}

// --- grid expansion ----------------------------------------------------------

TEST(ExploreGrid, SingleKernelDefaultGridIsOneCompile) {
  const auto points = expandGrid(firGrid());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].kernel, "fir");
  EXPECT_EQ(points[0].label, "fir@u1/ns4");
  EXPECT_EQ(points[0].options.unrollFactor, 1);
  // With no target axis, a kernel without a default gets the BuildOptions one.
  EXPECT_DOUBLE_EQ(points[0].options.dpOptions.targetStageDelayNs, 4.0);
  EXPECT_EQ(pointConfigJson(points[0]).pretty(),
            "{\"unroll\": 1, \"autoUnrollBudget\": 0, \"targetNs\": 4, "
            "\"pipeline\": true, \"optimize\": true, \"lutConvert\": true, "
            "\"widthMode\": \"range\", \"multStyle\": \"lut\", \"busElems\": 1, "
            "\"smartBuffer\": true}\n");
}

TEST(ExploreGrid, CrossProductCoversEveryAxisCombination) {
  SweepGrid grid = firGrid();
  setAxis(grid, OptionId::Unroll, {"1", "2", "4"});
  setAxis(grid, OptionId::TargetNs, {"2", "4"});
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
  setAxis(grid, OptionId::Unroll, {"2", "2", "2"});
  EXPECT_EQ(expandGrid(grid).size(), 1u);
}

TEST(ExploreGrid, DefaultTargetAndItsExplicitSpellingDedup) {
  // 0 resolves to the compiler default 4.0, so {0, 4.0} is one point —
  // dedup is semantic (content-addressed compile key), not syntactic.
  SweepGrid grid = firGrid();
  setAxis(grid, OptionId::TargetNs, {"0", "4.0"});
  EXPECT_EQ(expandGrid(grid).size(), 1u);
}

TEST(ExploreGrid, PerKernelDefaultTargetResolvesThroughZero) {
  SweepGrid grid;
  grid.kernels.push_back({"dct", "", 7.5});
  grid.kernels[0].source = kFirSource; // source content irrelevant to resolution
  setAxis(grid, OptionId::TargetNs, {"0"});
  const auto points = expandGrid(grid);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].options.dpOptions.targetStageDelayNs, 7.5);
  EXPECT_EQ(points[0].label, "dct@u1/ns7.5");
}

TEST(ExploreGrid, OptionCanonicalizationReachesCompileOptions) {
  SweepGrid grid = firGrid();
  setAxis(grid, OptionId::Pipeline, {"off"});
  setAxis(grid, OptionId::WidthMode, {"declared"});
  setAxis(grid, OptionId::MultStyle, {"mult18"});
  const auto points = expandGrid(grid);
  ASSERT_EQ(points.size(), 1u);
  const CompileOptions& o = points[0].options;
  EXPECT_FALSE(o.dpOptions.pipeline);
  EXPECT_EQ(o.dpOptions.widthMode, dp::BuildOptions::WidthMode::Declared);
  EXPECT_EQ(o.dpOptions.multStyle, dp::BuildOptions::MultStyle::Mult18);
  // A bool option's tag is its flag, an enum option's its token.
  EXPECT_EQ(points[0].label, "fir@u1/ns4/nopipeline/declared/mult18");
}

TEST(ExploreGrid, LabelsTellCloseTargetsApart) {
  // Six significant digits printed both of these as "ns3.12346": two
  // points, one label. Labels and the config block print the shortest
  // text that reads back as the same double.
  SweepGrid grid = firGrid();
  setAxis(grid, OptionId::TargetNs, {"3.1234567", "3.1234568"});
  const auto points = expandGrid(grid);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].label, "fir@u1/ns3.1234567");
  EXPECT_EQ(points[1].label, "fir@u1/ns3.1234568");
  const std::string config = pointConfigJson(points[0]).pretty();
  EXPECT_NE(config.find("\"targetNs\": 3.1234567,"), std::string::npos) << config;
}

TEST(ExploreGrid, DirectivesAreTheRowFlags) {
  std::vector<std::string> directives;
  for (OptionId id : kSweepOptions) directives.emplace_back(sweepDirective(id));
  EXPECT_EQ(directives,
            (std::vector<std::string>{"unroll", "auto-unroll-budget", "target-ns", "pipeline",
                                      "optimize", "lut-convert", "width-mode", "mult-style"}));
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
  setAxis(grid, OptionId::Unroll, {"4", "1", "2"});
  setAxis(grid, OptionId::TargetNs, {"8", "2"});
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
      "pipeline on off\n"
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
  EXPECT_EQ(axisText(m.grid, OptionId::Unroll), "1,2,4");
  EXPECT_EQ(axisText(m.grid, OptionId::AutoUnrollBudget), "0,1000");
  EXPECT_EQ(axisText(m.grid, OptionId::TargetNs), "0,8");
  EXPECT_EQ(axisText(m.grid, OptionId::Pipeline), "true,false");
  EXPECT_EQ(axisText(m.grid, OptionId::Optimize), "true");
  EXPECT_EQ(axisText(m.grid, OptionId::LutConvert), "false");
  EXPECT_EQ(axisText(m.grid, OptionId::WidthMode), "\"declared\",\"paper\",\"range\"");
  EXPECT_EQ(axisText(m.grid, OptionId::MultStyle), "\"lut\",\"mult18\"");
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

  EXPECT_FALSE(parseSweepManifest("pipeline maybe\n", m, error));
  EXPECT_TRUE(error.rfind("line 1:", 0) == 0) << error;

  EXPECT_FALSE(parseSweepManifest("kernel tap3\n", m, error));
  EXPECT_NE(error.find("NAME and PATH"), std::string::npos) << error;

  EXPECT_FALSE(parseSweepManifest("seed 1 2\n", m, error));
  EXPECT_TRUE(error.rfind("line 1:", 0) == 0) << error;

  // A seed is decimal or 0x hex, never signed.
  EXPECT_FALSE(parseSweepManifest("seed -1\n", m, error));
  EXPECT_TRUE(error.rfind("line 1:", 0) == 0) << error;
  EXPECT_NE(error.find("invalid seed '-1'"), std::string::npos) << error;
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

TEST(ExploreManifest, DocListsExactlyTheDirectives) {
  // docs/EXPLORE.md's grid-file table: one "| `directive` | ..." row per
  // directive: the sweep options' and the six that are not options.
  std::ifstream in(std::filesystem::path(ROCCC_DOCS_DIR) / "EXPLORE.md");
  ASSERT_TRUE(in);
  std::set<std::string> documented;
  bool inSection = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) inSection = line == "## Grid files";
    if (!inSection || line.rfind("| `", 0) != 0) continue;
    documented.insert(line.substr(3, line.find('`', 3) - 3));
  }
  std::set<std::string> expected = {"table1",       "kernel", "bus-elems",
                                    "smart-buffer", "axes",   "seed"};
  for (OptionId id : kSweepOptions) expected.emplace(sweepDirective(id));
  EXPECT_EQ(documented, expected);
  for (const std::string& directive : expected) {
    SweepManifest m;
    std::string error;
    parseSweepManifest(directive + "\n", m, error);
    EXPECT_EQ(error.find("unknown directive"), std::string::npos) << error;
  }
}

TEST(ExploreManifest, UnknownAxisNamesTheLine) {
  SweepManifest m;
  std::string error;
  EXPECT_FALSE(parseSweepManifest("\n\naxes slices,speed\n", m, error));
  EXPECT_TRUE(error.rfind("line 3:", 0) == 0) << error;
  EXPECT_NE(error.find("speed"), std::string::npos) << error;
}

// --- energy ---------------------------------------------------------------------

// One energy view: the model's core voltage reaches the Report behind
// --stats-json's timing.energy and roccc-explore's pJ/cycle alike. Dynamic
// energy is C·V², so 3.0 V against the built-in 1.5 V is exactly 4x;
// leakage and the critical path do not move.
TEST(ExploreEnergy, CoreVoltageScalesDynamicEnergyByFour) {
  SweepGrid base = firGrid();
  SweepGrid hot = firGrid();
  hot.base.timingModelSpec = "core-voltage 3.0\n";
  SweepOptions opt;
  opt.collectCycles = false;
  const SweepResult a = runSweep(base, opt);
  const SweepResult b = runSweep(hot, opt);
  ASSERT_EQ(a.okCount(), 1);
  ASSERT_EQ(b.okCount(), 1);

  auto report = [](const CompileOptions& options) {
    const CompileResult r = Compiler(options).compileSource(kFirSource);
    synth::TimingModel storage;
    std::string error;
    const synth::TimingModel* model = synth::TimingModel::resolve(options.timingModelSpec, storage, error);
    EXPECT_NE(model, nullptr) << error;
    return synth::estimate(r.module, estimateOptionsFor(options, *model));
  };
  const synth::Report cool = report(base.base);
  const synth::Report warm = report(hot.base);
  EXPECT_GT(cool.dynamicPjPerCycle, 0);
  EXPECT_EQ(warm.dynamicPjPerCycle, 4 * cool.dynamicPjPerCycle);
  EXPECT_EQ(warm.leakageMw, cool.leakageMw);
  EXPECT_EQ(warm.criticalPathNs, cool.criticalPathNs);
  EXPECT_DOUBLE_EQ(a.points[0].metrics.energyPjPerCycle, cool.energyPerCyclePj());
  EXPECT_DOUBLE_EQ(b.points[0].metrics.energyPjPerCycle, warm.energyPerCyclePj());
}

// --- sweep execution + determinism -------------------------------------------

TEST(ExploreDeterminism, JsonIsByteIdenticalAcrossWorkerCounts) {
  SweepGrid grid = firGrid();
  setAxis(grid, OptionId::Unroll, {"1", "2", "4"});
  setAxis(grid, OptionId::TargetNs, {"4", "8"});

  SweepOptions one;
  one.workers = 1;
  SweepOptions eight;
  eight.workers = 8;
  const SweepResult a = runSweep(grid, one);
  const SweepResult b = runSweep(grid, eight);
  const std::string json = a.toJson().pretty();
  EXPECT_EQ(json, b.toJson().pretty());
  // Wall-time fields are exempt — they live only in the timings form.
  EXPECT_NE(a.toJson(true).find("run"), nullptr);
  EXPECT_EQ(json.find("\"wallMs\""), std::string::npos);
  EXPECT_EQ(json.find("\"compileMs\""), std::string::npos);
}

TEST(ExploreDeterminism, MetricsAndFrontierAreStable) {
  SweepGrid grid = firGrid();
  setAxis(grid, OptionId::Unroll, {"1", "2"});
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
  const std::string json = sweep.toJson().pretty();
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
  setAxis(grid, OptionId::Unroll, {"1", "2"});
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
  EXPECT_NE(sweep.toJson().pretty().find("\"outcome\": \"frontend-error\""), std::string::npos);
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
  ASSERT_TRUE(json::parse(sweep.toJson().pretty(), doc, error)) << error;
  const json::Value& row = doc.find("results")->items().front();
  EXPECT_EQ(row.find("kernel")->asString(), "k\r\x01");
  EXPECT_EQ(row.find("label")->asString(), "label\r\x01");
  EXPECT_EQ(row.find("error")->asString(), "error\r\x01");
  EXPECT_EQ(doc.find("frontiers")->items().front().find("best")->asString(), "label\r\x01");
}

TEST(ExploreDeterminism, JsonKeepsTheEstimatesDoubles) {
  // The report once printed metrics at six significant digits, so its
  // fmax and critical path were not synth::estimate's values. Every
  // double now reads back bit for bit.
  SweepGrid grid = firGrid();
  setAxis(grid, OptionId::TargetNs, {"3.1234567"});
  SweepOptions opt;
  opt.collectCycles = false;
  const SweepResult sweep = runSweep(grid, opt);
  ASSERT_EQ(sweep.okCount(), 1);
  const SweepPoint& point = sweep.points[0].point;
  const CompileResult r = Compiler(point.options).compileSource(point.source);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  const synth::Report est = synth::estimate(
      r.module, estimateOptionsFor(point.options, synth::TimingModel::virtex2()));

  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(sweep.toJson().pretty(), doc, error)) << error;
  const json::Value& row = doc.find("results")->items().front();
  EXPECT_EQ(row.find("config")->find("targetNs")->asDouble(), 3.1234567);
  const json::Value& m = *row.find("metrics");
  EXPECT_EQ(m.find("criticalPathNs")->asDouble(), est.criticalPathNs);
  EXPECT_EQ(m.find("fmaxMHz")->asDouble(), est.fmaxMHz());
  EXPECT_EQ(m.find("energyPjPerCycle")->asDouble(), est.energyPerCyclePj());
  EXPECT_EQ(m.find("edpPjNs")->asDouble(), est.edpPjNs());
}

TEST(ExploreDeterminism, AutoUnrollPointReportsTheFactorItChose) {
  // An explicit point reports its axis value; an auto-unroll point reports
  // the factor its search chose, which is the explicit point of that
  // factor, area and all.
  SweepGrid grid = firGrid();
  setAxis(grid, OptionId::Unroll, {"1", "2", "4", "8"});
  setAxis(grid, OptionId::AutoUnrollBudget, {"0", "300"});
  SweepOptions opt;
  opt.collectCycles = false;
  const SweepResult sweep = runSweep(grid, opt);
  ASSERT_EQ(sweep.failedCount(), 0) << sweep.outcomeSummary();
  std::map<int64_t, int64_t> slicesAt; // explicit factor -> slices
  for (const auto& p : sweep.points) {
    if (p.point.options.autoUnrollSliceBudget > 0) continue;
    EXPECT_EQ(p.metrics.unroll, p.point.options.unrollFactor) << p.point.label;
    slicesAt[p.metrics.unroll] = p.metrics.slices;
  }
  int autoPoints = 0;
  for (const auto& p : sweep.points) {
    if (p.point.options.autoUnrollSliceBudget == 0) continue;
    ++autoPoints;
    EXPECT_GT(p.metrics.unroll, 1) << p.point.label;
    ASSERT_TRUE(slicesAt.count(p.metrics.unroll)) << p.point.label << " chose " << p.metrics.unroll;
    EXPECT_EQ(p.metrics.slices, slicesAt[p.metrics.unroll]) << p.point.label;
  }
  EXPECT_GT(autoPoints, 0);
  EXPECT_NE(sweep.toJson().pretty().find("\"unroll\": "), std::string::npos);
}

} // namespace
} // namespace roccc
