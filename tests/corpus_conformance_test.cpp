// Corpus conformance: every kernel under tests/corpus/ (golden C programs
// beyond Table 1 — multi-loop, nested-conditional, and accumulator/
// reduction shapes) must compile, pass 5-way differential agreement on the
// deterministic stimulus, and ship a self-checking system testbench that
// PASSES under the reference netlist semantics. The generated VHDL is also
// snapshot under tests/golden/corpus/ with the same byte-for-byte contract
// (and --update-goldens escape hatch) as the Table 1 goldens.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "roccc/compiler.hpp"
#include "roccc/verify.hpp"
#include "synth/estimate.hpp"

namespace roccc {
namespace {

bool g_updateGoldens = false;

struct CorpusKernel {
  std::string name;   // file stem, also the golden-file stem
  std::string path;
  std::string source;
};

// gtest prints a parameter without operator<< as its raw bytes, which for
// the std::string members are heap addresses; print the name instead so the
// listed (and CTest-discovered) test names are the same on every run.
void PrintTo(const CorpusKernel& k, std::ostream* os) { *os << k.name; }

const std::vector<CorpusKernel>& corpus() {
  static const std::vector<CorpusKernel> kernels = [] {
    std::vector<CorpusKernel> out;
    for (const auto& entry : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
      if (entry.path().extension() != ".c") continue;
      CorpusKernel k;
      k.name = entry.path().stem().string();
      k.path = entry.path().string();
      std::ifstream in(entry.path());
      std::ostringstream buf;
      buf << in.rdbuf();
      k.source = buf.str();
      out.push_back(std::move(k));
    }
    std::sort(out.begin(), out.end(),
              [](const CorpusKernel& a, const CorpusKernel& b) { return a.name < b.name; });
    return out;
  }();
  return kernels;
}

TEST(Corpus, HasAtLeastTwelveKernels) {
  EXPECT_GE(corpus().size(), 12u) << "corpus eroded below the PR-5 floor";
}

TEST(Corpus, FiveWayAgreementWithSelfCheckingTestbenches) {
  std::vector<CompileJob> jobs;
  for (const auto& k : corpus()) {
    for (const int u : {1, 2}) {
      CompileJob job;
      job.name = u == 1 ? k.name : k.name + "@u" + std::to_string(u);
      job.source = k.source;
      job.options.unrollFactor = u;
      jobs.push_back(std::move(job));
    }
  }
  VerifyOptions opt;
  opt.checkTestbench = true;
  const VerifyReport report = verifyConformance(jobs, opt);
  ASSERT_EQ(report.verdicts.size(), jobs.size());
  for (const auto& v : report.verdicts) {
    EXPECT_EQ(v.outcome, CompileOutcome::Ok) << v.kernel << ": " << v.compileError;
    EXPECT_TRUE(v.agree) << v.kernel << ": "
                         << (v.disagreements.empty() ? "" : v.disagreements.front().detail);
    EXPECT_TRUE(v.testbenchPassed) << v.kernel;
    EXPECT_EQ(v.enginesRun, 5) << v.kernel;
  }
}

// A constant divisor is a multiply and a shift, never the restoring
// divider's bit-select and compare rows: box3x3's `/ 9` on a sum in
// [0, 2295], and `/ 2` on the int sum of two uint8 elements.
TEST(Corpus, ConstantDivisorsBuildNoDividerRows) {
  const auto box = std::find_if(corpus().begin(), corpus().end(),
                                [](const CorpusKernel& k) { return k.name == "box3x3"; });
  ASSERT_NE(box, corpus().end());
  const std::string avg2 = R"(
    void avg2(const uint8 A[16], const uint8 B[16], uint8 C[16]) {
      int i;
      for (i = 0; i < 16; i++) {
        C[i] = (A[i] + B[i]) / 2;
      }
    }
  )";
  struct Case {
    const char* name;
    const std::string& source;
    int maxStages;
  };
  for (const Case& c : {Case{"box3x3", box->source, 6}, Case{"avg2", avg2, 1}}) {
    const CompileResult r = Compiler().compileSource(c.source);
    ASSERT_TRUE(r.ok) << c.name << ":\n" << r.diags.dump();
    for (const dp::DpOp& o : r.datapath.ops) {
      EXPECT_TRUE(o.op != mir::Opcode::BitSel && o.op != mir::Opcode::Sge)
          << c.name << " holds a divider row: " << mir::opcodeName(o.op);
    }
    EXPECT_LE(r.datapath.stageCount, c.maxStages) << c.name;
  }
  // The default 4 ns target, LUT multiplier style: no larger or slower
  // than the hand-written multiply and shift.
  const Compiler compiler;
  const CompileResult r = compiler.compileSource(box->source);
  const synth::Report est = synth::estimate(
      r.module, estimateOptionsFor(compiler.options(), synth::TimingModel::virtex2()));
  EXPECT_LE(est.slices, 142);
  EXPECT_GE(est.fmaxMHz(), 185.5);
}

class CorpusGolden : public ::testing::TestWithParam<CorpusKernel> {};

TEST_P(CorpusGolden, GeneratedVhdlMatchesGoldenBytes) {
  const CorpusKernel& k = GetParam();
  const Compiler compiler;
  const CompileResult r = compiler.compileSource(k.source);
  ASSERT_TRUE(r.ok) << k.path << ":\n" << r.diags.dump();
  ASSERT_FALSE(r.vhdl.empty());

  const std::string path = std::string(ROCCC_GOLDEN_DIR) + "/corpus/" + k.name + ".vhd";
  if (g_updateGoldens) {
    std::filesystem::create_directories(std::string(ROCCC_GOLDEN_DIR) + "/corpus");
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << r.vhdl;
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with --update-goldens";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  if (golden != r.vhdl) {
    std::istringstream a(golden), b(r.vhdl);
    std::string la, lb;
    int line = 0;
    while (true) {
      ++line;
      const bool ga = static_cast<bool>(std::getline(a, la));
      const bool gb = static_cast<bool>(std::getline(b, lb));
      if (!ga || !gb || la != lb) break;
    }
    FAIL() << k.name << ": generated VHDL diverges from " << path << " at line " << line
           << "\n  golden:    " << la << "\n  generated: " << lb
           << "\n(run with --update-goldens if the change is intentional)";
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, CorpusGolden, ::testing::ValuesIn(corpus()),
                         [](const ::testing::TestParamInfo<CorpusKernel>& info) {
                           return info.param.name;
                         });

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
