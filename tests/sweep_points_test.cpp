// Stock-grid pin: every bench/sweeps/*.sweep grid file parses, its kernels
// resolve the way roccc-explore resolves them, and it expands to exactly
// the points in tests/golden/sweep_points.txt, one line per point:
//
//   <grid file> <label> <config object as the JSON report prints it>
//
// Expansion compiles nothing, so the test is fast; the report's metrics are
// the explore tests' business. Updating the file after an intentional
// change to labels, the config block or the stock grids:
//
//   ./build/tests/sweep_points_test --update-goldens
//   git diff tests/golden/sweep_points.txt
//
// (or set ROCCC_UPDATE_GOLDENS=1 in the environment).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/sweep_kernels.hpp"
#include "roccc/explore.hpp"

namespace roccc {

bool g_updateGoldens = false;

namespace {

namespace fs = std::filesystem;

const std::string kGoldenFile = std::string(ROCCC_GOLDEN_DIR) + "/sweep_points.txt";

/// The golden text of every stock grid, grid files in name order.
std::string currentPoints() {
  std::vector<fs::path> grids;
  for (const auto& e : fs::directory_iterator(ROCCC_SWEEPS_DIR)) {
    if (e.path().extension() == ".sweep") grids.push_back(e.path());
  }
  std::sort(grids.begin(), grids.end());
  EXPECT_FALSE(grids.empty()) << "no grid files in " << ROCCC_SWEEPS_DIR;
  std::string out;
  for (const fs::path& path : grids) {
    const std::string file = path.filename().string();
    SCOPED_TRACE(file);
    std::string text, error;
    SweepManifest manifest;
    EXPECT_TRUE(bench::readTextFile(path.string(), text));
    EXPECT_TRUE(parseSweepManifest(text, manifest, error)) << error;
    SweepGrid grid = manifest.grid;
    EXPECT_TRUE(bench::addManifestKernels(manifest, path.string(), grid, error)) << error;
    for (const SweepPoint& p : expandGrid(grid)) {
      out += file + " " + p.label + " " + pointConfigJson(p) + "\n";
    }
  }
  return out;
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(SweepPointsGolden, StockGridsExpandToTheGoldenPoints) {
  const std::string points = currentPoints();
  if (g_updateGoldens) {
    std::ofstream out(kGoldenFile, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
    out << points;
    return;
  }
  std::string golden;
  ASSERT_TRUE(bench::readTextFile(kGoldenFile, golden))
      << "missing golden file " << kGoldenFile << " — regenerate with --update-goldens";
  const std::vector<std::string> want = lines(golden);
  const std::vector<std::string> got = lines(points);
  ASSERT_EQ(want.size(), got.size()) << "the stock grids expand to a different point count";
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], got[i]);
}

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
