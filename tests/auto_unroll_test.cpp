// The auto-unroll search (CompileOptions::autoUnrollSliceBudget) on Table 1
// and every tests/corpus kernel at four slice budgets. For each chosen
// factor f the design fits the budget (unless f is 1), and f is the largest
// that does: 2f would overrun or not divide the unrolled loop's trip count,
// or its own synth::estimate is over the budget. The search's pass log
// times every probe compile and counts the chosen one.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/compiler.hpp"

namespace roccc {
namespace {

struct Kernel {
  std::string name;
  std::string source;
  double targetNs = 0; ///< the Table 1 row's stage-delay target; 0 = default
};

void PrintTo(const Kernel& k, std::ostream* os) { *os << k.name; }

std::vector<Kernel> kernels() {
  std::vector<Kernel> out;
  for (const auto& k : bench::kTable1Kernels) out.push_back({k.name, k.source, k.targetStageDelayNs});
  std::vector<Kernel> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
    if (entry.path().extension() != ".c") continue;
    std::ifstream in(entry.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus.push_back({entry.path().stem().string(), buf.str()});
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const Kernel& a, const Kernel& b) { return a.name < b.name; });
  out.insert(out.end(), corpus.begin(), corpus.end());
  return out;
}

class AutoUnrollChoice : public ::testing::TestWithParam<Kernel> {
 protected:
  CompileOptions options(int unroll, int64_t sliceBudget) const {
    CompileOptions o;
    if (GetParam().targetNs > 0) o.dpOptions.targetStageDelayNs = GetParam().targetNs;
    o.unrollFactor = unroll;
    o.autoUnrollSliceBudget = sliceBudget;
    return o;
  }
  int64_t slices(const CompileResult& r, const CompileOptions& o) const {
    return synth::estimate(r.module, estimateOptionsFor(o, synth::TimingModel::virtex2())).slices;
  }
};

TEST_P(AutoUnrollChoice, IsTheLargestFactorThatFits) {
  const Kernel& k = GetParam();
  const CompileResult one = Compiler(options(1, 0)).compileSource(k.source);
  ASSERT_TRUE(one.ok) << one.diags.dump();
  ASSERT_FALSE(one.kernel.loops.empty());
  const int64_t trips = one.kernel.loops.back().trips();
  for (const int64_t budget : {150, 600, 2500, 10000}) {
    const CompileOptions o = options(1, budget);
    const CompileResult r = Compiler(o).compileSource(k.source);
    ASSERT_TRUE(r.ok) << k.name << " @" << budget << ":\n" << r.diags.dump();
    const auto unroll = std::find_if(r.passLog.begin(), r.passLog.end(),
                                     [](const PassStatistics& p) { return p.name == "unroll"; });
    ASSERT_NE(unroll, r.passLog.end());
    const int f = static_cast<int>(unroll->counter("unroll-factor"));
    if (f > 1) {
      EXPECT_LE(slices(r, o), budget) << k.name << " @" << budget << " chose u" << f;
    }
    if (2 * f > trips || trips % (2 * f) != 0) continue;
    const CompileOptions twice = options(2 * f, 0);
    const CompileResult next = Compiler(twice).compileSource(k.source);
    ASSERT_TRUE(next.ok) << k.name << "@u" << 2 * f << ":\n" << next.diags.dump();
    EXPECT_GT(slices(next, twice), budget)
        << k.name << " @" << budget << " chose u" << f << ", but u" << 2 * f << " fits";
  }
}

INSTANTIATE_TEST_SUITE_P(TableOneAndCorpus, AutoUnrollChoice, ::testing::ValuesIn(kernels()),
                         [](const ::testing::TestParamInfo<Kernel>& info) {
                           return info.param.name;
                         });

double totalMs(const CompileResult& r) {
  double ms = 0;
  for (const PassStatistics& p : r.passLog) ms += p.wallMs;
  return ms;
}

/// The passes before `unroll`: the same work at every unroll factor.
double preUnrollMs(const CompileResult& r) {
  double ms = 0;
  for (const PassStatistics& p : r.passLog) {
    if (p.name == "unroll") break;
    ms += p.wallMs;
  }
  return ms;
}

/// The smallest `measure` of three compiles: the least noisy figure.
double fastest(const CompileOptions& o, const std::string& source,
               double (*measure)(const CompileResult&)) {
  double best = 0;
  for (int run = 0; run < 3; ++run) {
    const CompileResult r = Compiler(o).compileSource(source);
    EXPECT_TRUE(r.ok) << r.diags.dump();
    best = run == 0 ? measure(r) : std::min(best, measure(r));
  }
  return best;
}

TEST(AutoUnrollPassLog, TimesEveryProbeAndCountsTheChosenCompile) {
  const auto fir = std::find_if(std::begin(bench::kTable1Kernels), std::end(bench::kTable1Kernels),
                                [](const auto& k) { return std::string(k.name) == "fir"; });
  CompileOptions o;
  o.dpOptions.targetStageDelayNs = fir->targetStageDelayNs;
  o.autoUnrollSliceBudget = 50000;
  const CompileResult chosen = Compiler(o).compileSource(fir->source);
  ASSERT_TRUE(chosen.ok) << chosen.diags.dump();

  // The counters are the chosen factor's own compile's, pass by pass.
  CompileOptions direct = o;
  direct.autoUnrollSliceBudget = 0;
  direct.unrollFactor = 1;
  const CompileResult one = Compiler(direct).compileSource(fir->source);
  ASSERT_TRUE(one.ok) << one.diags.dump();
  const int64_t trips = one.kernel.loops.back().trips();
  int64_t f = 0;
  for (const PassStatistics& p : chosen.passLog) {
    if (p.name == "unroll") f = p.counter("unroll-factor");
  }
  ASSERT_GT(f, 1) << "the budget should allow unrolling";
  direct.unrollFactor = static_cast<int>(f);
  const CompileResult alone = Compiler(direct).compileSource(fir->source);
  ASSERT_EQ(chosen.passLog.size(), alone.passLog.size());
  for (size_t i = 0; i < alone.passLog.size(); ++i) {
    EXPECT_EQ(chosen.passLog[i].name, alone.passLog[i].name);
    EXPECT_EQ(chosen.passLog[i].counters, alone.passLog[i].counters) << alone.passLog[i].name;
  }

  // The time is every probe's: unroll 1, 2, ..., f, and 2f when the search
  // tried it and found it over the budget.
  std::vector<int64_t> probes;
  for (int64_t p = 1; p <= f; p *= 2) probes.push_back(p);
  if (2 * f <= trips && trips % (2 * f) == 0) probes.push_back(2 * f);
  double probesMs = 0;
  for (const int64_t p : probes) {
    direct.unrollFactor = static_cast<int>(p);
    probesMs += fastest(direct, fir->source, totalMs);
  }
  const double searchMs = fastest(o, fir->source, totalMs);
  direct.unrollFactor = static_cast<int>(f);
  EXPECT_GT(searchMs, fastest(direct, fir->source, totalMs))
      << "the log must not hold only the chosen compile's time";
  // Equal within timer noise; the bounds are wide enough for a loaded host.
  EXPECT_GT(searchMs, 0.5 * probesMs);
  EXPECT_LT(searchMs, 2.0 * probesMs);
  // The passes before unroll do the same work in every probe, so their
  // time grows with the probe count: a sharper check than the total, where
  // the chosen compile dominates. A probe's front end runs faster inside
  // the search than in a compile of its own, hence the loose lower bound.
  const double n = static_cast<double>(probes.size());
  const double onceMs = fastest(direct, fir->source, preUnrollMs);
  const double searchPreMs = fastest(o, fir->source, preUnrollMs);
  EXPECT_GT(searchPreMs, 0.25 * n * onceMs);
  EXPECT_LT(searchPreMs, 3.0 * n * onceMs);
}

} // namespace
} // namespace roccc
