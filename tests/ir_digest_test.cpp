// IR digest pin: every layer the compiler builds, not only the VHDL, must
// stay byte-identical across refactors of the middle end. For Table 1 (with
// each row's stage-delay target) and every tests/corpus kernel, at unroll
// factors 1, 2 and 4, the test hashes six artifacts with SHA-256:
//
//   mir        FunctionIR::dump() of the optimized SSA MIR
//   rtl        rtl::Module::dump() of the lowered netlist
//   vhdl       the generated VHDL
//   verilog    the generated Verilog
//   passes     every pass record (name, layer, ran, change counters), with
//              the wall times left out
//   testbench  emitSystemTestbench over makeSystemVectors of the default
//              verify stimulus plus 8 seeded extras: the expectations the
//              interpreter derives, which no other golden pins
//
// and compares the digests against tests/golden/ir_digests.txt, one
// `<job> <artifact> <sha256>` line each.
//
// Updating the file after an intentional change to any of those layers:
//
//   ./build/tests/ir_digest_test --update-goldens
//   git diff tests/golden/ir_digests.txt
//
// (or set ROCCC_UPDATE_GOLDENS=1 in the environment).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/compiler.hpp"
#include "roccc/verify.hpp"
#include "support/hash.hpp"
#include "vhdl/testbench.hpp"

namespace roccc {
namespace {

bool g_updateGoldens = false;

const char* const kDigestFile = ROCCC_GOLDEN_DIR "/ir_digests.txt";

struct DigestJob {
  std::string name;
  std::string source;
  CompileOptions options;
};

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<DigestJob> digestJobs() {
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
    if (entry.path().extension() != ".c") continue;
    corpus.emplace_back(entry.path().stem().string(), readFile(entry.path()));
  }
  std::sort(corpus.begin(), corpus.end());

  std::vector<DigestJob> jobs;
  for (const int u : {1, 2, 4}) {
    for (const auto& k : bench::kTable1Kernels) {
      DigestJob job{std::string(k.name) + "@u" + std::to_string(u), k.source, {}};
      if (k.targetStageDelayNs > 0) job.options.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
      job.options.unrollFactor = u;
      job.options.emitVerilog = true;
      jobs.push_back(std::move(job));
    }
    for (const auto& [name, source] : corpus) {
      DigestJob job{name + "@u" + std::to_string(u), source, {}};
      job.options.unrollFactor = u;
      job.options.emitVerilog = true;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// The pass log with wall times masked: one line per registered pass.
std::string passCounters(const std::vector<PassStatistics>& log) {
  std::string out;
  for (const auto& p : log) {
    out += p.name;
    out += ' ';
    out += passLayerName(p.layer);
    out += p.ran ? " ran" : " skipped";
    for (const auto& [key, value] : p.counters) out += ' ' + key + '=' + std::to_string(value);
    out += '\n';
  }
  return out;
}

/// The system testbench over the default verify stimulus plus 8 seeded
/// extras, as `roccc-verify --testbench-check` builds its vectors.
std::string systemTestbench(const CompileResult& r) {
  const uint64_t seed = VerifyOptions{}.seed;
  vhdl::TestbenchInfo info;
  const std::vector<vhdl::TestVector> vectors = vhdl::makeSystemVectors(
      r.kernel, r.datapath, deterministicStimulus(r.kernel, seed), /*extraRandom=*/8, seed, &info);
  return vhdl::emitSystemTestbench(r.datapath, r.kernel, vectors, info);
}

/// Digest lines for every job, in job order.
std::string currentDigests() {
  std::string out;
  for (const auto& job : digestJobs()) {
    const CompileResult r = Compiler(job.options).compileSource(job.source);
    EXPECT_TRUE(r.ok) << job.name << ": " << r.diags.dump();
    const std::pair<const char*, std::string> artifacts[] = {
        {"mir", r.mir.dump()},
        {"rtl", r.module.dump()},
        {"vhdl", r.vhdl},
        {"verilog", r.verilog},
        {"passes", passCounters(r.passLog)},
        {"testbench", systemTestbench(r)},
    };
    for (const auto& [artifact, text] : artifacts) {
      out += job.name + ' ' + artifact + ' ' + sha256Hex(text) + '\n';
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

TEST(IrDigests, EveryLayerMatchesGoldenFile) {
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
  ASSERT_EQ(want.size(), got.size()) << "job or artifact set changed";
  int mismatches = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] == got[i]) continue;
    ADD_FAILURE() << "digest differs\n  golden:    " << want[i] << "\n  generated: " << got[i];
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
