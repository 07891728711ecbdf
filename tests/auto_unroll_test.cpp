// The auto-unroll search (CompileOptions::autoUnrollSliceBudget) on Table 1
// and every tests/corpus kernel at four slice budgets. For each chosen
// factor f the design fits the budget (unless f is 1), and f is the largest
// that does: 2f would overrun or not divide the unrolled loop's trip count,
// or its own synth::estimate is over the budget.
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

} // namespace
} // namespace roccc
