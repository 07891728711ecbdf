// HDL checker verdict pin: vhdl::checkDesign and verilog::checkDesign must
// keep every verdict across rewrites of the checkers. For Table 1 (with
// each row's stage-delay target) and every tests/corpus kernel, at unroll
// factors 1, 2 and 4, the test runs both checkers on the emitted design and
// on a fixed number of SplitMix64-seeded mutants of it:
//
//   span deletion     1..64 bytes, or the whole tail of the text
//   span duplication  1..64 bytes repeated in place
//   fragment insert   "end if;", "entity work.x", a lone quote or tick,
//                     a comment opener, "END ENTITY", and Verilog pieces
//   character flip    one byte XORed with a low bit
//
// Half the mutation sites are drawn near a keyword, so the rules around
// block headers, port lists and assignments see broken text often. Every
// CheckResult field (ok, the problems in order, every count) is hashed
// into one line per checker in tests/golden/hdl_check_digests.txt:
//
//   <checker> checks=<n> ok=<n> <sha256>
//
// Updating the file after an intentional change to a checker's verdicts:
//
//   ./build/tests/hdl_check_digest_test --update-goldens
//   git diff tests/golden/hdl_check_digests.txt
//
// (or set ROCCC_UPDATE_GOLDENS=1 in the environment). Every run also
// writes the hashed records, one check each, to hdl_check_records.txt in
// the working directory; to find which check moved, keep the file from a
// run before the change and diff it against one from after.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/compiler.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "vhdl/check.hpp"
#include "vhdl/verilog.hpp"

namespace roccc {
namespace {

bool g_updateGoldens = false;

const char* const kDigestFile = ROCCC_GOLDEN_DIR "/hdl_check_digests.txt";
const char* const kRecordsFile = "hdl_check_records.txt";

constexpr int kMutantsPerDesign = 40;

struct Design {
  std::string name;
  std::string vhdl;
  std::string verilog;
};

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The 66 designs of the IR digest pin: Table 1 + corpus at unroll 1/2/4.
std::vector<Design> designs() {
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
    if (entry.path().extension() != ".c") continue;
    corpus.emplace_back(entry.path().stem().string(), readFile(entry.path()));
  }
  std::sort(corpus.begin(), corpus.end());

  std::vector<Design> out;
  auto add = [&](const std::string& name, const std::string& source, CompileOptions options) {
    options.emitVerilog = true;
    const CompileResult r = Compiler(options).compileSource(source);
    EXPECT_TRUE(r.ok) << name << ": " << r.diags.dump();
    out.push_back({name, r.vhdl, r.verilog});
  };
  for (const int u : {1, 2, 4}) {
    for (const auto& k : bench::kTable1Kernels) {
      CompileOptions options;
      if (k.targetStageDelayNs > 0) options.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
      options.unrollFactor = u;
      add(std::string(k.name) + "@u" + std::to_string(u), k.source, options);
    }
    for (const auto& [name, source] : corpus) {
      CompileOptions options;
      options.unrollFactor = u;
      add(name + "@u" + std::to_string(u), source, options);
    }
  }
  return out;
}

constexpr std::string_view kFragments[] = {
    "end if;", "entity work.x", "\"", "'", "--", "END ENTITY",
    "endmodule", "begin", "end", "//", "assign w = x;", "ghost u0 (",
};

constexpr std::string_view kLandmarks[] = {
    "entity", "architecture", "end", "port", "signal", "begin", "process", "if", "<=",
    "module", "assign", "wire", "input", "[", "(",
};

/// A mutation site: uniform in the text, or at a keyword found from a
/// uniform start (wrapping around).
size_t pickSite(const std::string& text, SplitMix64& rng) {
  const size_t start = rng.next() % (text.size() + 1);
  if (rng.next() % 2 == 0 || text.empty()) return start;
  const std::string_view mark = kLandmarks[rng.next() % std::size(kLandmarks)];
  size_t at = text.find(mark, start);
  if (at == std::string::npos) at = text.find(mark);
  return at == std::string::npos ? start : at;
}

void mutate(std::string& text, SplitMix64& rng) {
  const size_t pos = pickSite(text, rng);
  const size_t len = 1 + rng.next() % 64;
  switch (rng.next() % 4) {
    case 0: // span deletion; one in eight drops the whole tail
      text.erase(pos, rng.next() % 8 == 0 ? std::string::npos : len);
      break;
    case 1: // span duplication
      text.insert(pos, text.substr(pos, len));
      break;
    case 2:
      text.insert(pos, kFragments[rng.next() % std::size(kFragments)]);
      break;
    default: // character flip
      if (pos < text.size()) text[pos] = static_cast<char>(text[pos] ^ (1 << (rng.next() % 7)));
      break;
  }
}

/// Folds checker verdicts into one digest line.
class VerdictLog {
 public:
  explicit VerdictLog(std::string checker) : checker_(std::move(checker)) {}

  void add(const std::string& label, bool ok, const std::vector<int>& counts,
           const std::vector<std::string>& problems) {
    std::string rec = label + (ok ? " ok" : " bad");
    for (const int c : counts) rec += ' ' + std::to_string(c);
    rec += " problems=" + std::to_string(problems.size()) + '\n';
    for (const auto& p : problems) rec += p + '\n';
    sha_.update(rec);
    records_ += rec;
    ++checks_;
    okCount_ += ok ? 1 : 0;
  }

  const std::string& records() const { return records_; }

  std::string line() {
    return checker_ + " checks=" + std::to_string(checks_) + " ok=" + std::to_string(okCount_) +
           ' ' + sha_.hex() + '\n';
  }

 private:
  std::string checker_;
  Sha256 sha_;
  std::string records_;
  int checks_ = 0;
  int okCount_ = 0;
};

/// Runs `check` on `text` and its mutants, seeded by the design name.
template <class Check>
void checkWithMutants(VerdictLog& log, const std::string& name, const std::string& text,
                      const Check& check) {
  SplitMix64 rng(fnv1a(name));
  check(log, name, text);
  for (int m = 0; m < kMutantsPerDesign; ++m) {
    std::string mutant = text;
    const int edits = 1 + static_cast<int>(rng.next() % 3);
    for (int e = 0; e < edits; ++e) mutate(mutant, rng);
    check(log, name + "#" + std::to_string(m), mutant);
  }
}

std::string currentDigests() {
  VerdictLog vhdlLog("vhdl");
  VerdictLog verilogLog("verilog");
  for (const auto& d : designs()) {
    const vhdl::CheckResult clean = vhdl::checkDesign(d.vhdl);
    EXPECT_TRUE(clean.ok) << d.name << ":\n" << ::testing::PrintToString(clean.problems);
    const verilog::CheckResult vclean = verilog::checkDesign(d.verilog);
    EXPECT_TRUE(vclean.ok) << d.name << ":\n" << ::testing::PrintToString(vclean.problems);

    checkWithMutants(vhdlLog, d.name + ".vhd", d.vhdl,
                     [](VerdictLog& log, const std::string& label, const std::string& text) {
                       const vhdl::CheckResult r = vhdl::checkDesign(text);
                       log.add(label, r.ok,
                               {r.entityCount, r.architectureCount, r.processCount,
                                r.instantiationCount},
                               r.problems);
                     });
    checkWithMutants(verilogLog, d.name + ".v", d.verilog,
                     [](VerdictLog& log, const std::string& label, const std::string& text) {
                       const verilog::CheckResult r = verilog::checkDesign(text);
                       log.add(label, r.ok, {r.moduleCount, r.instantiationCount, r.alwaysCount},
                               r.problems);
                     });
  }
  std::ofstream(kRecordsFile, std::ios::binary) << vhdlLog.records() << verilogLog.records();
  return vhdlLog.line() + verilogLog.line();
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(HdlCheckDigests, VerdictsMatchGoldenFile) {
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
  ASSERT_EQ(want.size(), got.size()) << "checker set changed";
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "checker verdicts differ";
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
