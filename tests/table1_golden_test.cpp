// Golden-snapshot tests: the generated VHDL for all nine Table 1 kernels is
// checked in under tests/golden/ and must match byte-for-byte on every
// platform, build type, and — together with tests/driver_test.cpp — every
// batch worker count. Any intentional change to code generation shows up as
// a reviewable diff of the golden files.
//
// Updating the goldens after an intentional emitter/pipeline change:
//
//   ./build/tests/table1_golden_test --update-goldens
//   git diff tests/golden/        # review every byte that moved
//
// (or set ROCCC_UPDATE_GOLDENS=1 in the environment). The test writes the
// freshly generated VHDL over the checked-in files and then passes; commit
// the diff together with the change that caused it. ROCCC_GOLDEN_DIR is
// injected by tests/CMakeLists.txt and points at the source tree, so
// updates land in git, not in the build directory.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "../bench/kernels.hpp"
#include "roccc/compiler.hpp"
#include "support/strings.hpp"
#include "vhdl/check.hpp"

namespace roccc {
namespace {

bool g_updateGoldens = false;

std::string goldenPath(const std::string& kernelName) {
  return std::string(ROCCC_GOLDEN_DIR) + "/" + kernelName + ".vhd";
}

CompileOptions optionsFor(const bench::NamedKernel& k) {
  CompileOptions opt;
  if (k.targetStageDelayNs > 0) opt.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
  return opt;
}

// Parameterised by row index rather than by NamedKernel: gtest prints a
// struct without operator<< as its raw bytes, pointers included, so the
// listed test names (and the CTest names discovered from them) would change
// with address-space randomisation on every build.
class Table1Golden : public ::testing::TestWithParam<size_t> {};

TEST_P(Table1Golden, GeneratedVhdlMatchesGoldenBytes) {
  const bench::NamedKernel& k = bench::kTable1Kernels[GetParam()];
  const Compiler compiler(optionsFor(k));
  const CompileResult r = compiler.compileSource(k.source);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  ASSERT_FALSE(r.vhdl.empty());

  const std::string path = goldenPath(k.name);
  if (g_updateGoldens) {
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
    // Locate the first differing line for a readable failure before the
    // byte-count summary.
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
           << "\n(golden " << golden.size() << " bytes, generated " << r.vhdl.size()
           << " bytes; run with --update-goldens if the change is intentional)";
  }
}

// The checked-in text itself passes the structural checker, which rejects
// a port, signal or constant named with a VHDL reserved word (mul_acc's
// output port `out` was once printed as is).
TEST_P(Table1Golden, GoldenFilePassesTheChecker) {
  const std::string path = goldenPath(bench::kTable1Kernels[GetParam()].name);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const vhdl::CheckResult chk = vhdl::checkDesign(buf.str());
  EXPECT_TRUE(chk.ok) << path << ":\n" << join(chk.problems, "\n");
}

INSTANTIATE_TEST_SUITE_P(Kernels, Table1Golden,
                         ::testing::Range<size_t>(0, std::size(bench::kTable1Kernels)),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(bench::kTable1Kernels[info.param].name);
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
