// Staging pin across stage-delay targets: latch placement (greedy cut,
// merge, balance) must place every op in the same stage when its search is
// made cheaper. ir_digests.txt covers only each kernel's default target,
// where almost nothing merges or moves; this file covers Table 1 and every
// tests/corpus kernel at unroll factors 1, 2 and 4 and targets 1.5 to 12 ns,
// one line per point:
//
//   <kernel>@u<unroll>@t<target> stages=<n> merges=<n> moved=<n>
//       worst=<worstStageNs as %.17g> ops=<sha256 of the per-op stages>
//
// compared against tests/golden/staging_digests.txt.
//
// Updating the file after an intentional change to latch placement:
//
//   ./build/tests/staging_digest_test --update-goldens
//   git diff tests/golden/staging_digests.txt
//
// (or set ROCCC_UPDATE_GOLDENS=1 in the environment).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/compiler.hpp"
#include "support/hash.hpp"

namespace roccc {
namespace {

bool g_updateGoldens = false;

const char* const kDigestFile = ROCCC_GOLDEN_DIR "/staging_digests.txt";

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::pair<std::string, std::string>> kernels() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& k : bench::kTable1Kernels) out.emplace_back(k.name, k.source);
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
    if (entry.path().extension() != ".c") continue;
    corpus.emplace_back(entry.path().stem().string(), readFile(entry.path()));
  }
  std::sort(corpus.begin(), corpus.end());
  out.insert(out.end(), corpus.begin(), corpus.end());
  return out;
}

/// One line per (kernel, unroll, target) point, in that nesting order.
std::string currentDigests() {
  std::string out;
  for (const auto& [name, source] : kernels()) {
    for (const int u : {1, 2, 4}) {
      for (const char* target : {"1.5", "2", "3", "4", "6", "8", "12"}) {
        CompileOptions options;
        options.unrollFactor = u;
        options.dpOptions.targetStageDelayNs = std::strtod(target, nullptr);
        const CompileResult r = Compiler(options).compileSource(source);
        const std::string point = name + "@u" + std::to_string(u) + "@t" + target;
        EXPECT_TRUE(r.ok) << point << ": " << r.diags.dump();
        std::string stages;
        for (const auto& op : r.datapath.ops) stages += std::to_string(op.stage) + ' ';
        char worst[32];
        std::snprintf(worst, sizeof worst, "%.17g", r.datapath.timing.worstStageNs);
        out += point + " stages=" + std::to_string(r.datapath.stageCount) +
               " merges=" + std::to_string(r.datapath.timing.merges) +
               " moved=" + std::to_string(r.datapath.timing.movedOps) + " worst=" + worst +
               " ops=" + sha256Hex(stages) + '\n';
      }
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

TEST(StagingDigests, EveryTargetMatchesGoldenFile) {
  const std::string digests = currentDigests();
  if (g_updateGoldens) {
    std::ofstream out(kDigestFile, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kDigestFile;
    out << digests;
    return;
  }
  ASSERT_TRUE(std::filesystem::exists(kDigestFile))
      << "missing golden file " << kDigestFile << " — regenerate with --update-goldens";
  const std::vector<std::string> want = lines(readFile(kDigestFile));
  const std::vector<std::string> got = lines(digests);
  ASSERT_EQ(want.size(), got.size()) << "point set changed";
  int mismatches = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] == got[i]) continue;
    ADD_FAILURE() << "staging differs\n  golden:    " << want[i] << "\n  generated: " << got[i];
    if (++mismatches == 20) break;
  }
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
