// Tests for the compile-option table (src/roccc/options.hpp) and the
// command-line parser every tool shares (src/support/cli.hpp).
//
// The load-bearing property is that the front doors agree: for every row,
// the roccc-cc flag, the roccc-client flag and the protocol key parse to
// the same canonical option text, and the compile they describe yields the
// same bytes locally and through a daemon. A sweep option's grid axis
// (roccc-explore) checks and sets values through the same rows. The cache-key side (every row
// moves the key) lives in cache_test.cpp.
//
// OptionDoors starts a daemon in-process, so the TSan CI job runs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "roccc/cache.hpp"
#include "roccc/explore.hpp"
#include "roccc/options.hpp"
#include "roccc/service_net.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

namespace roccc {
namespace {

namespace fs = std::filesystem;
using json::Value;

// A kernel every row's option can change: a LUT-convertible callee, an
// inner loop to fully unroll, constant multiplies and a divide.
const char* kKernel = R"(void third(int8 x, int8* r) { *r = x / 3; }
void k(const int8 A[20], int16 C[16]) {
  int i;
  int j;
  int16 s;
  int8 h;
  for (i = 0; i < 16; i = i + 1) {
    s = A[i] * 5 + A[i + 4] * 3;
    for (j = 0; j < 4; j = j + 1) {
      s = s + ((A[i] >> j) & 1);
    }
    h = 0;
    third(A[i], h);
    C[i] = s + h;
  }
}
)";

const char* kSlowModel = "model slow\nadd 24 3.9 0 24 0\nmul-lut 24 7.5 0 317 0\n";

/// A non-default point per row: `text` is the CLI value (ignored for Bool
/// rows; the file's contents for FileContents rows), `json` the protocol
/// value.
struct Sample {
  OptionId id;
  std::string text;
  Value json;
};

std::vector<Sample> samples() {
  return {
      {OptionId::Kernel, "k", Value::string("k")},
      {OptionId::Unroll, "2", Value::number(int64_t{2})},
      {OptionId::AutoUnrollBudget, "1000", Value::number(int64_t{1000})},
      {OptionId::FullUnroll, "", Value::boolean(false)},
      {OptionId::LutConvert, "", Value::boolean(false)},
      {OptionId::Optimize, "", Value::boolean(false)},
      {OptionId::TargetNs, "2.5", Value::number(2.5)},
      {OptionId::Pipeline, "", Value::boolean(false)},
      {OptionId::WidthMode, "paper", Value::string("paper")},
      {OptionId::MultStyle, "mult18", Value::string("mult18")},
      {OptionId::TimingModel, kSlowModel, Value::string(kSlowModel)},
      {OptionId::Verilog, "k.v", Value::boolean(true)},
      {OptionId::VerifyEach, "", Value::boolean(true)},
      {OptionId::TimeoutMs, "600000", Value::number(int64_t{600000})},
      {OptionId::MaxIrNodes, "1000000", Value::number(int64_t{1000000})},
      {OptionId::MaxUnrollProduct, "4096", Value::number(int64_t{4096})},
      {OptionId::MaxDepth, "64", Value::number(int64_t{64})},
      {OptionId::InjectFault, "dp.build", Value::string("dp.build")},
  };
}

/// CLI values each row must reject. Each of these once compiled silently:
/// atof/atoi read "foo" as 0, "3x" as 3, and nothing checked the sign.
std::vector<std::pair<OptionId, std::string>> malformedValues() {
  return {
      {OptionId::TargetNs, "foo"}, {OptionId::TargetNs, "nan"},  {OptionId::TargetNs, "inf"},
      {OptionId::TargetNs, "0"},   {OptionId::TargetNs, "-1.5"}, {OptionId::TargetNs, ""},
      {OptionId::Unroll, "abc"},   {OptionId::Unroll, "0"},      {OptionId::Unroll, "-3"},
      {OptionId::Unroll, "3x"},    {OptionId::Unroll, " 3"},     {OptionId::Unroll, "4294967296"},
      {OptionId::MaxDepth, "-1"},  {OptionId::WidthMode, "portopcode"},
      {OptionId::MultStyle, "dsp48"},
  };
}

bool isSweepOption(OptionId id) {
  return std::find(std::begin(kSweepOptions), std::end(kSweepOptions), id) !=
         std::end(kSweepOptions);
}

/// Runs `specs` over one flag (plus its value) the way a tool's main does.
bool parseOneFlag(const cli::OptionSpec& spec, const std::string& value, std::string& error) {
  std::vector<std::string> args = {"tool", spec.name};
  if (spec.valueName) args.push_back(value);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  std::vector<std::string> positional;
  return cli::parseArgs(static_cast<int>(argv.size()), argv.data(), {&spec, 1}, positional,
                        error);
}

TEST(OptionTable, RowsAreIndexedAndUniquelySpelled) {
  std::set<std::string> keys, flags;
  for (const OptionRow& row : optionTable()) {
    EXPECT_EQ(&optionRow(row.id), &row);
    EXPECT_EQ(findOptionByKey(row.key), &row);
    EXPECT_TRUE(keys.insert(row.key).second) << row.key;
    EXPECT_TRUE(flags.insert(row.flag).second) << row.flag;
    // Only Bool flags go without a value; `--verilog FILE` is the one Bool
    // flag that takes one (the tool's output path).
    const bool takesValue = row.kind != OptionKind::Bool || row.id == OptionId::Verilog;
    EXPECT_EQ(row.valueName != nullptr, takesValue) << row.flag;
  }
}

TEST(OptionTable, MalformedValuesAreRejected) {
  for (const auto& [id, text] : malformedValues()) {
    CompileOptions o;
    std::string error;
    EXPECT_FALSE(setOptionFromText(optionRow(id), text.c_str(), o, error))
        << optionRow(id).flag << " '" << text << "'";
    EXPECT_EQ(error.rfind("must be", 0), 0u) << error;
  }
  CompileOptions o;
  std::string error;
  EXPECT_FALSE(setOptionFromText(optionRow(OptionId::TimingModel), "/nonexistent/model.tm", o,
                                 error));
  ASSERT_TRUE(setOptionFromText(optionRow(OptionId::TargetNs), "3.25", o, error)) << error;
  EXPECT_EQ(o.dpOptions.targetStageDelayNs, 3.25);
  ASSERT_TRUE(setOptionFromText(optionRow(OptionId::TimeoutMs), "-1", o, error)) << error;
  EXPECT_EQ(o.budget.timeoutMs, -1); // the deterministic-timeout convention
}

TEST(OptionTable, SweepAxesRejectWhatTheirRowsReject) {
  // A grid file and roccc-explore's axis flags check a value with the
  // row's own validator: `--target-ns inf` once compiled a point that
  // roccc-cc rejects, and wrote `"targetNs": inf` into the JSON report.
  for (const auto& [id, text] : malformedValues()) {
    if (!isSweepOption(id) || (id == OptionId::TargetNs && text == "0")) continue;
    const OptionRow& row = optionRow(id);
    SCOPED_TRACE(std::string(row.flag) + " '" + text + "'");
    CompileOptions o;
    std::string rowError, error;
    ASSERT_FALSE(setOptionFromText(row, text.c_str(), o, rowError));

    SweepGrid grid;
    EXPECT_FALSE(parseOneFlag(sweepAxisFlag(id, grid, ""), text, error));
    EXPECT_NE(error.find(rowError), std::string::npos) << error;
    EXPECT_TRUE(grid.axes.empty());
    // A grid file splits values on spaces and commas, so only a single
    // token can reach the row.
    if (text.empty() || text.find_first_of(" ,") != std::string::npos) continue;
    SweepManifest m;
    EXPECT_FALSE(parseSweepManifest(fmt("%0 %1\n", sweepDirective(id), text), m, error));
    EXPECT_EQ(error.rfind("line 1: ", 0), 0u) << error;
    EXPECT_NE(error.find(rowError), std::string::npos) << error;
  }

  // A value the row accepts is a grid value too; the grid file once capped
  // unroll at 2^20 and target-ns at 1e6.
  SweepManifest m;
  std::string error;
  EXPECT_TRUE(parseSweepManifest("unroll 2000000\ntarget-ns 2e6\n", m, error)) << error;
  // target-ns 0 is the one value an axis takes that its row does not: the
  // kernel's default.
  EXPECT_TRUE(parseSweepManifest("target-ns 0\n", m, error)) << error;
  SweepGrid grid;
  EXPECT_TRUE(parseOneFlag(sweepAxisFlag(OptionId::TargetNs, grid, ""), "0,2.5", error)) << error;
  // Bool options take on/off.
  EXPECT_FALSE(parseSweepManifest("pipeline yes\n", m, error));
  EXPECT_NE(error.find("must be on or off"), std::string::npos) << error;
}

// --- the front doors agree ---------------------------------------------------

TEST(OptionDoors, EveryRowParsesAlikeAndCompilesToTheSameBytes) {
  const std::vector<Sample> points = samples();
  ASSERT_EQ(points.size(), optionTable().size()) << "every row needs a sample";

  ServiceConfig cfg;
  cfg.socketPath = ::testing::TempDir() + "roccc_opt_doors.sock";
  cfg.workers = 2;
  fs::remove(cfg.socketPath);
  ServiceDaemon daemon(cfg);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  ServiceClient client;
  ASSERT_TRUE(client.connect(cfg.socketPath, error)) << error;

  const std::string defaultText = canonicalizeOptions({});
  for (const Sample& p : points) {
    const OptionRow& row = optionRow(p.id);
    SCOPED_TRACE(row.key);
    std::string value = p.text;
    if (row.kind == OptionKind::FileContents) {
      value = ::testing::TempDir() + "roccc_opt_doors.tm";
      std::ofstream(value) << p.text;
    }

    // roccc-cc: the flag sets the field directly.
    CompileOptions viaCc;
    ASSERT_TRUE(parseOneFlag(compileFlag(p.id, viaCc), value, error)) << error;
    // roccc-client: the flag becomes a protocol key, parsed daemon-side.
    Value clientOptions = Value::object();
    ASSERT_TRUE(parseOneFlag(protocolFlag(p.id, clientOptions), value, error)) << error;
    CompileOptions viaClient;
    ASSERT_TRUE(compileOptionsFromJson(clientOptions, {}, {}, viaClient, error)) << error;
    // The protocol key written by hand.
    Value protocolOptions = Value::object();
    protocolOptions.set(row.key, p.json);
    CompileOptions viaProtocol;
    ASSERT_TRUE(compileOptionsFromJson(protocolOptions, {}, {}, viaProtocol, error)) << error;

    const std::string text = canonicalizeOptions(viaCc);
    EXPECT_NE(text, defaultText);
    EXPECT_EQ(canonicalizeOptions(viaClient), text);
    EXPECT_EQ(canonicalizeOptions(viaProtocol), text);

    const CompileResult local = Compiler(viaCc).compileSource(kKernel);
    Value resp;
    ASSERT_TRUE(client.request(makeCompileRequest("k", kKernel, protocolOptions), resp, error))
        << error;
    const Value* status = resp.find("status");
    ASSERT_NE(status, nullptr) << resp.dump();
    EXPECT_EQ(status->asString(), compileOutcomeName(local.outcome));
    const Value* vhdl = resp.find("vhdl");
    EXPECT_EQ(vhdl ? vhdl->asString() : std::string(), local.vhdl);
    const Value* verilog = resp.find("verilog");
    EXPECT_EQ(verilog ? verilog->asString() : std::string(), local.verilog);
    EXPECT_EQ(local.verilog.empty(), p.id != OptionId::Verilog);
  }
}

TEST(OptionDoors, EverySweepRowExpandsToTheCliCompile) {
  // The sweep door: a one-kernel grid with one single-value axis is one
  // point, and its options are the roccc-cc flag's.
  int swept = 0;
  for (const Sample& p : samples()) {
    if (!isSweepOption(p.id)) continue;
    const OptionRow& row = optionRow(p.id);
    SCOPED_TRACE(row.key);
    ++swept;
    CompileOptions viaCc;
    std::string error;
    ASSERT_TRUE(parseOneFlag(compileFlag(p.id, viaCc), p.text, error)) << error;

    SweepGrid grid;
    grid.kernels.push_back({"k", kKernel, 0});
    const std::string token =
        row.kind == OptionKind::Bool ? (p.json.asBool() ? "on" : "off") : p.text;
    ASSERT_TRUE(grid.setAxis(p.id, {token}, error)) << error;
    const std::vector<SweepPoint> points = expandGrid(grid);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(canonicalizeOptions(points[0].options), canonicalizeOptions(viaCc));
  }
  EXPECT_EQ(swept, static_cast<int>(std::size(kSweepOptions)));
}

TEST(OptionTable, ServiceDocListsExactlyTheProtocolKeys) {
  // docs/SERVICE.md's options table: one "| `key` | ..." row per option
  // table row.
  std::ifstream in(fs::path(ROCCC_DOCS_DIR) / "SERVICE.md");
  ASSERT_TRUE(in);
  std::set<std::string> documented;
  std::string line;
  bool inSection = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0 || line.rfind("### ", 0) == 0) {
      inSection = line == "## The job options object";
      continue;
    }
    if (!inSection || line.rfind("| `", 0) != 0) continue;
    const size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    documented.insert(line.substr(3, end - 3));
  }
  std::set<std::string> expected;
  for (const OptionRow& row : optionTable()) expected.insert(row.key);
  EXPECT_EQ(documented, expected);
}

// --- the shared parser -------------------------------------------------------

TEST(Cli, BothSpellingsAndStrictValues) {
  int64_t n = 0;
  bool flag = false;
  const std::vector<cli::OptionSpec> specs = {
      {"--n", "N", "a number", cli::setInt(n, 1, 100)},
      {"--flag", nullptr, "a flag", cli::setFlag(flag)},
  };
  const auto run = [&](std::vector<std::string> args, std::vector<std::string>& positional,
                       std::string& error) {
    args.insert(args.begin(), "tool");
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    return cli::parseArgs(static_cast<int>(argv.size()), argv.data(), specs, positional, error);
  };
  std::vector<std::string> positional;
  std::string error;
  ASSERT_TRUE(run({"a.c", "--n", "5", "--flag", "b.c"}, positional, error)) << error;
  EXPECT_EQ(n, 5);
  EXPECT_TRUE(flag);
  EXPECT_EQ(positional, (std::vector<std::string>{"a.c", "b.c"}));
  ASSERT_TRUE(run({"--n=7"}, positional, error)) << error;
  EXPECT_EQ(n, 7);

  const std::vector<std::vector<std::string>> bad = {
      {"--n"}, {"--n", "5x"}, {"--n=0"}, {"--n", "101"}, {"--flag=1"}, {"--nope"}, {"-"},
  };
  for (const auto& args : bad) {
    error.clear();
    EXPECT_FALSE(run(args, positional, error)) << args.front();
    EXPECT_FALSE(error.empty());
  }
  EXPECT_EQ(n, 7); // a rejected value leaves the target alone
}

TEST(Cli, SeedsAcceptCNotationOnly) {
  uint64_t seed = 0;
  EXPECT_TRUE(cli::parseSeed("0x0dc52005", seed));
  EXPECT_EQ(seed, 0x0dc52005u);
  EXPECT_TRUE(cli::parseSeed("77", seed));
  EXPECT_EQ(seed, 77u);
  EXPECT_FALSE(cli::parseSeed("abc", seed));
  EXPECT_FALSE(cli::parseSeed("12z", seed));
  EXPECT_FALSE(cli::parseSeed("", seed));
  // Decimal or 0x hex only: a leading zero is not octal.
  EXPECT_TRUE(cli::parseSeed("010", seed));
  EXPECT_EQ(seed, 10u);
  EXPECT_TRUE(cli::parseSeed("18446744073709551615", seed));
  EXPECT_EQ(seed, ~uint64_t{0});
  EXPECT_TRUE(cli::parseSeed("0xFFFFFFFFFFFFFFFF", seed));
  EXPECT_EQ(seed, ~uint64_t{0});
  // No sign, no blanks, no overflow, no bare or doubled prefix.
  seed = 5;
  for (const char* bad : {"-1", "+7", " 7", "7 ", "\t7", "99999999999999999999",
                          "0x10000000000000000", "0x", "0x-1", "0x 1", "0x0x5", "-0x1"}) {
    EXPECT_FALSE(cli::parseSeed(bad, seed)) << "'" << bad << "'";
  }
  EXPECT_EQ(seed, 5u);
}

} // namespace
} // namespace roccc
