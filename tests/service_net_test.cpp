// Tests for the roccc-ccd compile service (src/roccc/service_net.hpp) and
// the JSON layer beneath it (src/support/json.hpp).
//
// The load-bearing properties:
//   - protocol robustness: malformed / truncated / oversized / wrong-version
//     frames each get a *typed* error response (or, for a truncated frame,
//     a silent close) — never a crash, never a disconnect-without-reply for
//     an answerable frame;
//   - byte-identity: a daemon-served compile returns exactly the bytes a
//     local CompileService run of the same (source, options) produces —
//     including under a 256-connection stampede;
//   - bounded admission: queue-full / quota-exceeded / draining rejections
//     are deterministic (batch admission is atomic up front) and the
//     daemon keeps serving afterward;
//   - fault containment carries over the socket: an injected fault is an
//     `internal-error` response row, and the daemon serves on.
//
// Suites are named ServiceNet* so the TSan CI job's -R regex picks up the
// whole file.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "../bench/kernels.hpp"
#include "roccc/driver.hpp"
#include "roccc/service_net.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace roccc {
namespace {

namespace fs = std::filesystem;
using json::Value;

// A small valid kernel, cheap enough to compile hundreds of times.
const char* kSmallKernel = "void k(const int8 A[16], int16 C[12]) {\n"
                           "  int i;\n"
                           "  for (i = 0; i < 12; i++) { C[i] = A[i] + A[i+4]; }\n"
                           "}\n";

/// Short unique socket path (sun_path caps at ~108 bytes, so the gtest
/// temp root — always short in practice — is the safe place).
std::string freshSocket(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "roccc_svc_" + tag + ".sock";
  fs::remove(path);
  return path;
}

std::string freshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "roccc_svc_" + tag;
  fs::remove_all(dir);
  return dir;
}

/// Starts a daemon for one test and connects clients to it.
struct Harness {
  ServiceConfig cfg;
  std::unique_ptr<ServiceDaemon> daemon;

  explicit Harness(const std::string& tag) { cfg.socketPath = freshSocket(tag); }

  void start() {
    daemon = std::make_unique<ServiceDaemon>(cfg);
    std::string error;
    ASSERT_TRUE(daemon->start(error)) << error;
  }

  std::unique_ptr<ServiceClient> connect() {
    auto client = std::make_unique<ServiceClient>();
    std::string error;
    EXPECT_TRUE(client->connect(cfg.socketPath, error)) << error;
    return client;
  }
};

Value pingRequest() {
  Value req = Value::object();
  req.set("type", Value::string("ping"));
  return req;
}

/// The daemon's `error.code` field, or "" when the response is not an error.
std::string errorCode(const Value& resp) {
  const Value* type = resp.find("type");
  if (!type || !type->isString() || type->asString() != "error") return "";
  const Value* e = resp.find("error");
  const Value* code = e ? e->find("code") : nullptr;
  return code && code->isString() ? code->asString() : "";
}

std::string fieldString(const Value& v, const char* key) {
  const Value* f = v.find(key);
  return f && f->isString() ? f->asString() : "";
}

/// Reference bytes: the same contained job body the daemon runs.
CompileResult referenceCompile(const std::string& source, const CompileOptions& options = {}) {
  return runContainedJob({"ref", source, options});
}

// --- the JSON layer ----------------------------------------------------------

TEST(ServiceNetJson, RoundTripPreservesStructureAndOrder) {
  Value v = Value::object();
  v.set("b", Value::number(int64_t{2}));
  v.set("a", Value::number(3.5));
  Value arr = Value::array();
  arr.push(Value::boolean(true));
  arr.push(Value::null());
  arr.push(Value::string("x\"y\n"));
  v.set("list", std::move(arr));
  // Insertion order is preserved (not sorted) — byte-deterministic output.
  const std::string text = v.dump();
  EXPECT_EQ(text, "{\"b\":2,\"a\":3.5,\"list\":[true,null,\"x\\\"y\\n\"]}");
  Value back;
  std::string error;
  ASSERT_TRUE(json::parse(text, back, error)) << error;
  EXPECT_EQ(back.dump(), text);
}

TEST(ServiceNetJson, IntegersRoundTripExactly) {
  Value v;
  std::string error;
  ASSERT_TRUE(json::parse("[9007199254740993,-42,0,1e2]", v, error)) << error;
  ASSERT_EQ(v.items().size(), 4u);
  EXPECT_TRUE(v.items()[0].isIntegral());
  EXPECT_EQ(v.items()[0].asInt(), 9007199254740993ll); // above 2^53: double would lose it
  EXPECT_EQ(v.items()[1].asInt(), -42);
  // Exponent form normalizes to the integer it denotes on serialization.
  EXPECT_EQ(v.items()[3].asInt(), 100);
  EXPECT_EQ(v.dump(), "[9007199254740993,-42,0,100]");
}

TEST(ServiceNetJson, SerializerNeverEmitsRawNewlines) {
  Value v = Value::object();
  v.set("s", Value::string("line1\nline2\r\ttab\x01"));
  const std::string text = v.dump();
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_EQ(text.find('\r'), std::string::npos);
  Value back;
  std::string error;
  ASSERT_TRUE(json::parse(text, back, error));
  EXPECT_EQ(fieldString(back, "s"), "line1\nline2\r\ttab\x01");
}

TEST(ServiceNetJson, StrictParserRejections) {
  Value v;
  std::string error;
  EXPECT_FALSE(json::parse("", v, error));
  EXPECT_FALSE(json::parse("{\"a\":1,}", v, error));   // trailing comma
  EXPECT_FALSE(json::parse("{'a':1}", v, error));      // unquoted/single-quoted key
  EXPECT_FALSE(json::parse("{\"a\":01}", v, error));   // leading zero
  EXPECT_FALSE(json::parse("[1] extra", v, error));    // trailing bytes
  EXPECT_FALSE(json::parse("\"\\x41\"", v, error));    // bad escape
  EXPECT_FALSE(json::parse("{\"a\":", v, error));      // truncation
  EXPECT_FALSE(json::parse("nul", v, error));
  // The error carries a byte offset for operators reading daemon logs.
  EXPECT_NE(error.find("byte"), std::string::npos) << error;
}

TEST(ServiceNetJson, DepthCapStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  Value v;
  std::string error;
  EXPECT_FALSE(json::parse(deep, v, error)); // default cap is 64
  EXPECT_TRUE(json::parse(deep, v, error, 128));
}

TEST(ServiceNetJson, UnicodeEscapesIncludingSurrogatePairs) {
  Value v;
  std::string error;
  ASSERT_TRUE(json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"", v, error)) << error;
  EXPECT_EQ(v.asString(), "A\xc3\xa9\xf0\x9f\x98\x80");
  EXPECT_FALSE(json::parse("\"\\ud83d\"", v, error)); // lone high surrogate
}

// --- protocol options --------------------------------------------------------

TEST(ServiceNetOptions, UnknownKeysAndWrongTypesAreRejected) {
  CompileOptions base, out;
  std::string error;
  Value o = Value::object();
  o.set("unrol", Value::number(int64_t{2})); // typo'd key
  EXPECT_FALSE(compileOptionsFromJson(o, base, {}, out, error));
  EXPECT_NE(error.find("unrol"), std::string::npos);

  o = Value::object();
  o.set("inferWidths", Value::boolean(false)); // now widthMode "declared"
  EXPECT_FALSE(compileOptionsFromJson(o, base, {}, out, error));
  EXPECT_EQ(error, "unknown option 'inferWidths'");

  o = Value::object();
  o.set("unroll", Value::string("2")); // wrong type
  EXPECT_FALSE(compileOptionsFromJson(o, base, {}, out, error));

  o = Value::object();
  o.set("multStyle", Value::string("dsp48")); // bad enum value
  EXPECT_FALSE(compileOptionsFromJson(o, base, {}, out, error));
}

TEST(ServiceNetOptions, OutOfRangeValuesAreRejected) {
  // The option table's ranges hold at the protocol door as on the CLI:
  // `targetNs` <= 0 used to compile, although SERVICE.md says "number > 0".
  const std::pair<const char*, Value> bad[] = {
      {"targetNs", Value::number(int64_t{0})},
      {"targetNs", Value::number(-2.5)},
      {"targetNs", Value::string("4")},
      {"unroll", Value::number(int64_t{0})},
      {"unroll", Value::number(int64_t{-3})},
      {"unroll", Value::number(2.5)},
      {"unroll", Value::number(int64_t{1} << 40)},
      {"maxDepth", Value::number(int64_t{-1})},
      {"widthMode", Value::string("portopcode")},
      {"autoUnrollBudget", Value::number(int64_t{-1})},
      {"timingModel", Value::string("add 8 -1 0 0 0\n")},
      {"verifyEach", Value::number(int64_t{1})},
  };
  for (const auto& [key, value] : bad) {
    CompileOptions out;
    std::string error;
    Value o = Value::object();
    o.set(key, value);
    EXPECT_FALSE(compileOptionsFromJson(o, {}, {}, out, error)) << key << "=" << value.dump();
    EXPECT_EQ(error.rfind(fmt("option '%0' ", key), 0), 0u) << error;
  }
}

TEST(ServiceNetOptions, SemanticFieldsApplyOverBase) {
  CompileOptions base, out;
  base.unrollFactor = 1;
  std::string error;
  Value o = Value::object();
  o.set("unroll", Value::number(int64_t{4}));
  o.set("targetNs", Value::number(7.5));
  o.set("pipeline", Value::boolean(false));
  o.set("multStyle", Value::string("mult18"));
  o.set("kernel", Value::string("fir"));
  ASSERT_TRUE(compileOptionsFromJson(o, base, {}, out, error)) << error;
  EXPECT_EQ(out.unrollFactor, 4);
  EXPECT_EQ(out.dpOptions.targetStageDelayNs, 7.5);
  EXPECT_FALSE(out.dpOptions.pipeline);
  EXPECT_EQ(out.dpOptions.multStyle, dp::BuildOptions::MultStyle::Mult18);
  EXPECT_EQ(out.kernelName, "fir");
}

TEST(ServiceNetOptions, BudgetsClampToServerCeilings) {
  CompileOptions base, out;
  BudgetLimits ceiling;
  ceiling.timeoutMs = 5000;
  ceiling.maxIrNodes = 100000;
  std::string error;

  // A looser request clamps down; "unlimited" (0) collapses to the ceiling.
  Value o = Value::object();
  o.set("timeoutMs", Value::number(int64_t{60000}));
  o.set("maxIrNodes", Value::number(int64_t{0}));
  ASSERT_TRUE(compileOptionsFromJson(o, base, ceiling, out, error)) << error;
  EXPECT_EQ(out.budget.timeoutMs, 5000);
  EXPECT_EQ(out.budget.maxIrNodes, 100000);

  // A tighter request passes through.
  o = Value::object();
  o.set("timeoutMs", Value::number(int64_t{100}));
  ASSERT_TRUE(compileOptionsFromJson(o, base, ceiling, out, error)) << error;
  EXPECT_EQ(out.budget.timeoutMs, 100);

  // No request at all: the base budget still gets clamped.
  o = Value::object();
  base.budget.timeoutMs = 0;
  ASSERT_TRUE(compileOptionsFromJson(o, base, ceiling, out, error)) << error;
  EXPECT_EQ(out.budget.timeoutMs, 5000);
}

// --- protocol robustness over the socket -------------------------------------

class ServiceNetProtocol : public ::testing::Test {
 protected:
  void SetUp() override {
    harness_ = std::make_unique<Harness>(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    harness_->cfg.workers = 2;
    harness_->cfg.maxRequestBytes = 4096; // small, so oversized is cheap to hit
    harness_->start();
    if (HasFatalFailure()) return;
    client_ = harness_->connect();
  }

  /// One raw frame in, the parsed error code out.
  std::string roundTripErrorCode(const std::string& rawLine) {
    std::string raw, error;
    EXPECT_TRUE(client_->requestRaw(rawLine, raw, error)) << error;
    Value resp;
    EXPECT_TRUE(json::parse(raw, resp, error)) << error << " in: " << raw;
    return errorCode(resp);
  }

  std::unique_ptr<Harness> harness_;
  std::unique_ptr<ServiceClient> client_;
};

TEST_F(ServiceNetProtocol, MalformedFramesGetTypedErrors) {
  EXPECT_EQ(roundTripErrorCode("this is not json"), servicecode::kParseError);
  EXPECT_EQ(roundTripErrorCode("{\"proto\":\"roccc-ccd-v1\",\"type\":}"),
            servicecode::kParseError);
  EXPECT_EQ(roundTripErrorCode("[1,2,3]"), servicecode::kBadRequest); // valid JSON, not an object
  EXPECT_EQ(roundTripErrorCode("{\"type\":\"ping\"}"), servicecode::kProtocolVersion);
  EXPECT_EQ(roundTripErrorCode("{\"proto\":\"roccc-ccd-v0\",\"type\":\"ping\"}"),
            servicecode::kProtocolVersion);
  EXPECT_EQ(roundTripErrorCode("{\"proto\":\"roccc-ccd-v1\"}"), servicecode::kBadRequest);
  EXPECT_EQ(roundTripErrorCode("{\"proto\":\"roccc-ccd-v1\",\"type\":\"frobnicate\"}"),
            servicecode::kUnknownType);
  EXPECT_EQ(roundTripErrorCode("{\"proto\":\"roccc-ccd-v1\",\"type\":\"compile\"}"),
            servicecode::kBadRequest); // no source
  // After all that abuse the same connection still answers a good request.
  Value resp;
  std::string error;
  ASSERT_TRUE(client_->request(pingRequest(), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "pong");
}

TEST_F(ServiceNetProtocol, OutOfRangeOptionIsABadRequest) {
  const std::string prefix =
      "{\"proto\":\"roccc-ccd-v1\",\"type\":\"compile\",\"source\":\"void k() {}\",";
  EXPECT_EQ(roundTripErrorCode(prefix + "\"options\":{\"targetNs\":0}}"),
            servicecode::kBadRequest);
  EXPECT_EQ(roundTripErrorCode(prefix + "\"options\":{\"targetNs\":-1.5}}"),
            servicecode::kBadRequest);
  EXPECT_EQ(roundTripErrorCode(prefix + "\"options\":{\"unroll\":0}}"),
            servicecode::kBadRequest);
}

TEST_F(ServiceNetProtocol, ErrorResponsesEchoTheRequestId) {
  std::string raw, error;
  ASSERT_TRUE(client_->requestRaw("{\"proto\":\"roccc-ccd-v1\",\"type\":\"nope\",\"id\":77}",
                                  raw, error)) << error;
  Value resp;
  ASSERT_TRUE(json::parse(raw, resp, error)) << error;
  const Value* id = resp.find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->asInt(), 77);
}

TEST_F(ServiceNetProtocol, OversizedFrameGetsTypedErrorThenClose) {
  std::string huge = "{\"proto\":\"roccc-ccd-v1\",\"type\":\"compile\",\"source\":\"";
  huge += std::string(8192, 'x'); // past the 4096-byte cap
  huge += "\"}";
  std::string raw, error;
  ASSERT_TRUE(client_->requestRaw(huge, raw, error)) << error;
  Value resp;
  ASSERT_TRUE(json::parse(raw, resp, error)) << error;
  EXPECT_EQ(errorCode(resp), servicecode::kOversized);
  // Framing can't be trusted past this point: the daemon closes the
  // connection (next read sees EOF)...
  EXPECT_FALSE(client_->requestRaw("{}", raw, error));
  // ...but keeps serving fresh connections.
  auto fresh = harness_->connect();
  ASSERT_TRUE(fresh->request(pingRequest(), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "pong");
}

TEST_F(ServiceNetProtocol, TruncatedFrameIsDiscardedQuietly) {
  // Half a request and a hangup: unanswerable (no frame end), so the only
  // correct behaviour is a quiet close — and the daemon must survive it.
  std::string error;
  ASSERT_TRUE(client_->sendBytes("{\"proto\":\"roccc-ccd-v1\",\"type\":\"pi", error)) << error;
  client_->close();
  auto fresh = harness_->connect();
  Value resp;
  ASSERT_TRUE(fresh->request(pingRequest(), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "pong");
}

TEST_F(ServiceNetProtocol, BlankLinesAreKeepAliveNoise) {
  std::string error;
  ASSERT_TRUE(client_->sendBytes("\n  \r\n", error)) << error;
  Value resp;
  ASSERT_TRUE(client_->request(pingRequest(), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "pong");
}

// The one framed reader both ends use: frames that arrive together, a
// frame spread over many recv() calls, and the peer closing mid-frame.
TEST(ServiceNetFraming, LineReaderSplitsCoalescedAndFragmentedFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string big(1 << 20, 'v');
  big[12345] = 'w';
  std::thread writer([&] {
    const std::string stream = "first\nsecond\n" + big + "\nthird\npartial";
    // Small writes so the big frame needs many reads.
    for (size_t off = 0; off < stream.size(); off += 4000) {
      const std::string_view piece = std::string_view(stream).substr(off, 4000);
      if (::send(fds[1], piece.data(), piece.size(), 0) != static_cast<ssize_t>(piece.size())) {
        ADD_FAILURE() << "send failed at byte " << off;
        break;
      }
    }
    ::close(fds[1]);
  });
  LineReader reader(fds[0]);
  std::string line;
  ASSERT_EQ(reader.next(line), LineReader::Status::Line);
  EXPECT_EQ(line, "first");
  ASSERT_EQ(reader.next(line), LineReader::Status::Line);
  EXPECT_EQ(line, "second");
  ASSERT_EQ(reader.next(line), LineReader::Status::Line);
  EXPECT_EQ(line, big);
  ASSERT_EQ(reader.next(line), LineReader::Status::Line);
  EXPECT_EQ(line, "third");
  EXPECT_EQ(reader.next(line), LineReader::Status::Eof); // "partial" is a truncated frame
  writer.join();
  ::close(fds[0]);

  // The daemon's cap still applies to a frame that arrives whole.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[1], "0123456789\n", 11, 0), 11);
  LineReader capped(fds[0], 8);
  EXPECT_EQ(capped.next(line), LineReader::Status::Oversized);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- compile / batch ---------------------------------------------------------

TEST(ServiceNetCompile, DaemonBytesMatchLocalCompile) {
  Harness h("compile_identity");
  h.cfg.workers = 2;
  h.start();
  auto client = h.connect();

  CompileOptions withVerilog;
  withVerilog.emitVerilog = true;
  const CompileResult ref = referenceCompile(kSmallKernel, withVerilog);
  ASSERT_TRUE(ref.ok);
  ASSERT_FALSE(ref.verilog.empty());

  Value resp;
  std::string error;
  Value options = Value::object();
  options.set("verilog", Value::boolean(true));
  ASSERT_TRUE(client->request(makeCompileRequest("k.c", kSmallKernel, options), resp, error))
      << error;
  EXPECT_EQ(fieldString(resp, "type"), "result");
  EXPECT_EQ(fieldString(resp, "status"), "ok");
  EXPECT_EQ(fieldString(resp, "vhdl"), ref.vhdl);
  EXPECT_EQ(fieldString(resp, "verilog"), ref.verilog);
  EXPECT_EQ(fieldString(resp, "sha256"), sha256Hex(ref.vhdl));
}

TEST(ServiceNetCompile, FrontendErrorIsATypedRowNotARejection) {
  Harness h("compile_frontend");
  h.cfg.workers = 1;
  h.start();
  auto client = h.connect();
  Value resp;
  std::string error;
  ASSERT_TRUE(client->request(makeCompileRequest("bad.c", "void k(int", {}), resp, error))
      << error;
  EXPECT_EQ(fieldString(resp, "type"), "result"); // a result row, not an error response
  EXPECT_EQ(fieldString(resp, "status"), "frontend-error");
  const Value* diags = resp.find("diags");
  ASSERT_NE(diags, nullptr);
  EXPECT_FALSE(diags->items().empty());
}

TEST(ServiceNetCompile, BatchPreservesJobOrderAndMatchesLocalBatch) {
  Harness h("batch_identity");
  h.cfg.workers = 4;
  h.start();
  auto client = h.connect();

  // Local reference: the same jobs through CompileService.
  std::vector<CompileJob> jobs;
  for (const auto& k : bench::kTable1Kernels) {
    CompileOptions o;
    if (k.targetStageDelayNs > 0) o.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    jobs.push_back({k.name, k.source, o});
  }
  CompileService service(4);
  const BatchResult ref = service.compileBatch(jobs);

  Value req = Value::object();
  req.set("type", Value::string("batch"));
  Value rows = Value::array();
  for (const auto& k : bench::kTable1Kernels) {
    Value job = Value::object();
    job.set("name", Value::string(k.name));
    job.set("source", Value::string(k.source));
    if (k.targetStageDelayNs > 0) {
      Value o = Value::object();
      o.set("targetNs", Value::number(k.targetStageDelayNs));
      job.set("options", std::move(o));
    }
    rows.push(std::move(job));
  }
  req.set("jobs", std::move(rows));

  Value resp;
  std::string error;
  ASSERT_TRUE(client->request(req, resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "batch-result");
  const Value* results = resp.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Value& row = results->items()[i];
    EXPECT_EQ(fieldString(row, "name"), jobs[i].name) << i; // job order == row order
    EXPECT_EQ(fieldString(row, "status"), "ok") << jobs[i].name;
    EXPECT_EQ(fieldString(row, "vhdl"), ref.results[i].vhdl) << jobs[i].name;
  }
}

TEST(ServiceNetCompile, SharedCacheServesSecondClientFromFirstCompile) {
  Harness h("shared_cache");
  h.cfg.workers = 2;
  h.cfg.cacheEnabled = true;
  h.start();

  auto first = h.connect();
  Value resp;
  std::string error;
  ASSERT_TRUE(first->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error)) << error;
  ASSERT_EQ(fieldString(resp, "status"), "ok");
  const Value* cached = resp.find("cached");
  ASSERT_NE(cached, nullptr);
  EXPECT_FALSE(cached->asBool());
  const std::string bytes = fieldString(resp, "vhdl");

  // A *different* connection hits the same shared cache entry.
  auto second = h.connect();
  ASSERT_TRUE(second->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error)) << error;
  cached = resp.find("cached");
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->asBool());
  EXPECT_EQ(fieldString(resp, "vhdl"), bytes);
}

TEST(ServiceNetCompile, VerilogRequestMissesAWarmEntryWithoutIt) {
  // `verilog` is part of the cache key: a warm entry compiled without
  // Verilog must not answer a request for it, and a response carries
  // `verilog` exactly when the job asked for it.
  Harness h("verilog_key");
  h.cfg.workers = 1;
  h.cfg.cacheEnabled = true;
  h.start();
  auto client = h.connect();

  Value resp;
  std::string error;
  for (int round = 0; round < 2; ++round) { // cold, then warm
    ASSERT_TRUE(client->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error))
        << error;
    ASSERT_EQ(fieldString(resp, "status"), "ok");
    EXPECT_EQ(resp.find("verilog"), nullptr);
  }
  ASSERT_TRUE(resp.find("cached")->asBool());

  CompileOptions withVerilog;
  withVerilog.emitVerilog = true;
  const CompileResult ref = Compiler(withVerilog).compileSource(kSmallKernel);
  ASSERT_FALSE(ref.verilog.empty());
  Value options = Value::object();
  options.set("verilog", Value::boolean(true));
  ASSERT_TRUE(client->request(makeCompileRequest("k.c", kSmallKernel, options), resp, error))
      << error;
  ASSERT_EQ(fieldString(resp, "status"), "ok");
  EXPECT_FALSE(resp.find("cached")->asBool());
  EXPECT_EQ(fieldString(resp, "verilog"), ref.verilog);
  EXPECT_EQ(fieldString(resp, "vhdl"), ref.vhdl);

  // The plain entry still answers plain requests, without Verilog.
  ASSERT_TRUE(client->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error))
      << error;
  EXPECT_TRUE(resp.find("cached")->asBool());
  EXPECT_EQ(resp.find("verilog"), nullptr);
}

TEST(ServiceNetCompile, DiskCacheSurvivesDaemonGenerations) {
  const std::string dir = freshDir("cache_gen");
  std::string bytes;
  {
    Harness h("cache_gen1");
    h.cfg.workers = 1;
    h.cfg.cacheEnabled = true;
    h.cfg.cache.diskDir = dir;
    h.start();
    auto client = h.connect();
    Value resp;
    std::string error;
    ASSERT_TRUE(client->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error))
        << error;
    ASSERT_EQ(fieldString(resp, "status"), "ok");
    bytes = fieldString(resp, "vhdl");
    h.daemon->stop();
  }
  {
    // A fresh daemon over the same --cache-dir: first request is a hit.
    Harness h("cache_gen2");
    h.cfg.workers = 1;
    h.cfg.cacheEnabled = true;
    h.cfg.cache.diskDir = dir;
    h.start();
    auto client = h.connect();
    Value resp;
    std::string error;
    ASSERT_TRUE(client->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error))
        << error;
    ASSERT_EQ(fieldString(resp, "status"), "ok");
    const Value* cached = resp.find("cached");
    ASSERT_NE(cached, nullptr);
    EXPECT_TRUE(cached->asBool());
    EXPECT_EQ(fieldString(resp, "vhdl"), bytes);
  }
}

/// One compile over `client`; the response's sha256 must be the SHA-256 of
/// its vhdl. Returns the response's `cached` flag.
bool expectDigestMatchesVhdl(ServiceClient& client, const std::string& source,
                             const std::string& what) {
  Value resp;
  std::string error;
  EXPECT_TRUE(client.request(makeCompileRequest("k.c", source, {}), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "status"), "ok") << what;
  const std::string vhdl = fieldString(resp, "vhdl");
  EXPECT_FALSE(vhdl.empty()) << what;
  EXPECT_EQ(fieldString(resp, "sha256"), sha256Hex(vhdl)) << what;
  const Value* cached = resp.find("cached");
  return cached && cached->isBool() && cached->asBool();
}

// The digest rides in the cache entry: computed on a miss, replayed by
// hits and coalesced waiters, recomputed on a tier-2 load, and computed
// at the response when no cache is attached.
TEST(ServiceNetCompile, Sha256MatchesTheVhdlOnEveryServePath) {
  const std::string dir = freshDir("digest");
  {
    Harness h("digest_gen1");
    h.cfg.workers = 4;
    h.cfg.maxQueue = 64;
    h.cfg.cacheEnabled = true;
    h.cfg.cache.diskDir = dir;
    h.start();
    auto client = h.connect();
    EXPECT_FALSE(expectDigestMatchesVhdl(*client, kSmallKernel, "miss"));
    EXPECT_TRUE(expectDigestMatchesVhdl(*client, kSmallKernel, "warm hit"));

    // A 16-connection stampede on a key nobody has compiled yet: one
    // leader compiles, the rest wait on it or hit what it stored.
    const std::string fresh = std::string(kSmallKernel) + "// stampede\n";
    constexpr int kClients = 16;
    std::vector<std::thread> threads;
    std::vector<int> cached(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ServiceClient one;
        std::string error;
        ASSERT_TRUE(one.connect(h.cfg.socketPath, error)) << error;
        cached[c] = expectDigestMatchesVhdl(one, fresh, "stampede client " + std::to_string(c));
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(std::count(cached.begin(), cached.end(), 0), 1); // exactly one compile
    h.daemon->stop();
  }
  {
    // Same --cache-dir, new daemon: the first request loads from disk.
    Harness h("digest_gen2");
    h.cfg.workers = 1;
    h.cfg.cacheEnabled = true;
    h.cfg.cache.diskDir = dir;
    h.start();
    auto client = h.connect();
    EXPECT_TRUE(expectDigestMatchesVhdl(*client, kSmallKernel, "tier-2 load"));
    EXPECT_TRUE(expectDigestMatchesVhdl(*client, kSmallKernel, "hit after tier-2 load"));
  }
  {
    // An entry another producer (roccc-cc --cache-dir: a CompileService
    // over a disk-backed cache, which never hashes) put in the disk tier.
    const std::string source = std::string(kSmallKernel) + "// from roccc-cc\n";
    CacheConfig cc;
    cc.diskDir = dir;
    CompileService service(1);
    service.setCache(std::make_shared<CompileCache>(cc));
    const BatchResult batch = service.compileBatch({{"k.c", source, {}}});
    ASSERT_TRUE(batch.results[0].ok);
    EXPECT_TRUE(batch.results[0].vhdlSha256.empty());

    Harness h("digest_gen3");
    h.cfg.workers = 1;
    h.cfg.cacheEnabled = true;
    h.cfg.cache.diskDir = dir;
    h.start();
    auto client = h.connect();
    EXPECT_TRUE(expectDigestMatchesVhdl(*client, source, "entry stored by roccc-cc"));
  }
  {
    Harness h("digest_nocache");
    h.cfg.workers = 1;
    h.start();
    auto client = h.connect();
    EXPECT_FALSE(expectDigestMatchesVhdl(*client, kSmallKernel, "cache-disabled daemon"));
  }
}

/// The daemon's admission-window depth from a `status` request.
int64_t queueDepth(ServiceClient& client) {
  Value req = Value::object();
  req.set("type", Value::string("status"));
  Value resp;
  std::string error;
  EXPECT_TRUE(client.request(req, resp, error)) << error;
  const Value* depth = resp.find("queueDepth");
  return depth && depth->isNumber() ? depth->asInt() : -1;
}

/// A batch of four distinct slow misses: the wavelet kernel at unroll 64,
/// tens of milliseconds per compile, each copy with its own source bytes.
Value slowMissBatch() {
  Value batch = Value::object();
  batch.set("proto", Value::string(kServiceProtocol));
  batch.set("type", Value::string("batch"));
  Value jobs = Value::array();
  for (int i = 0; i < 4; ++i) {
    Value options = Value::object();
    options.set("unroll", Value::number(int64_t{64}));
    Value job = Value::object();
    job.set("name", Value::string("wavelet" + std::to_string(i)));
    job.set("source", Value::string(std::string(bench::kWavelet) + "// copy " +
                                    std::to_string(i) + "\n"));
    job.set("options", std::move(options));
    jobs.push(std::move(job));
  }
  batch.set("jobs", std::move(jobs));
  return batch;
}

// A memory hit is answered on its connection thread: it does not queue
// behind compiles for a worker.
TEST(ServiceNetCompile, HitIsServedWhileTheOnlyWorkerCompiles) {
  Harness h("hit_beside_compile");
  h.cfg.workers = 1;
  h.cfg.cacheEnabled = true;
  h.start();
  auto b = h.connect();
  Value resp;
  std::string error;
  ASSERT_TRUE(b->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error)) << error;
  ASSERT_EQ(fieldString(resp, "status"), "ok");

  // Connection A: four distinct slow misses, sent without reading the
  // answer.
  auto a = h.connect();
  ASSERT_TRUE(a->sendBytes(slowMissBatch().dump() + "\n", error)) << error;
  for (int spin = 0; spin < 1000 && queueDepth(*b) < 4; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(queueDepth(*b), 4) << "A's batch was never admitted";

  // B's warm key is answered while A's compiles still hold the worker.
  ASSERT_TRUE(b->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "status"), "ok");
  EXPECT_TRUE(resp.find("cached")->asBool());
  EXPECT_GE(queueDepth(*b), 1) << "the hit waited for A's compiles";

  // A's response, read only now, is four compiled rows (the ping that
  // reads it is answered after it).
  std::string raw;
  ASSERT_TRUE(a->requestRaw("{\"proto\":\"roccc-ccd-v1\",\"type\":\"ping\"}", raw, error)) << error;
  ASSERT_TRUE(json::parse(raw, resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "batch-result");
  const Value* rows = resp.find("results");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 4u);
  for (const Value& row : rows->items()) {
    EXPECT_EQ(fieldString(row, "status"), "ok");
    EXPECT_FALSE(row.find("cached")->asBool());
  }
}

// A batch row's serviceMs counts its queue wait, as a compile request's
// does: with one worker, the last of four equal misses waits for the other
// three, so its serviceMs is nearly the batch's wallMs (a row timed only
// while it ran reads about a quarter of it).
TEST(ServiceNetCompile, BatchRowTimeIncludesItsQueueWait) {
  Harness h("batch_row_time");
  h.cfg.workers = 1;
  h.start();
  auto client = h.connect();
  Value resp;
  std::string error;
  ASSERT_TRUE(client->request(slowMissBatch(), resp, error)) << error;
  ASSERT_EQ(fieldString(resp, "type"), "batch-result");
  const Value* rows = resp.find("results");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 4u);
  double longestRowMs = 0;
  for (const Value& row : rows->items()) {
    EXPECT_EQ(fieldString(row, "status"), "ok");
    longestRowMs = std::max(longestRowMs, row.find("serviceMs")->asDouble());
  }
  const double wallMs = resp.find("wallMs")->asDouble();
  EXPECT_GE(longestRowMs, 0.75 * wallMs) << "wallMs " << wallMs;
  EXPECT_LE(longestRowMs, wallMs);
}

TEST(ServiceNetCompile, BudgetCeilingTurnsRunawayJobIntoTypedTimeout) {
  Harness h("budget_ceiling");
  h.cfg.workers = 1;
  h.cfg.budgetCeiling.timeoutMs = -1; // already expired: deterministic timeout
  h.start();
  auto client = h.connect();
  Value resp;
  std::string error;
  // The client asks for a generous hour; the server ceiling wins.
  Value options = Value::object();
  options.set("timeoutMs", Value::number(int64_t{3600000}));
  ASSERT_TRUE(client->request(makeCompileRequest("k.c", kSmallKernel, options), resp, error))
      << error;
  EXPECT_EQ(fieldString(resp, "status"), "timeout");
}

// --- backpressure and quotas -------------------------------------------------

TEST(ServiceNetBackpressure, OversizedBatchRejectsExactlyTheTail) {
  Harness h("queue_full");
  h.cfg.workers = 2;
  h.cfg.maxQueue = 4;
  h.cfg.maxClientJobs = 64;
  h.start();
  auto client = h.connect();

  Value req = Value::object();
  req.set("type", Value::string("batch"));
  Value jobsArr = Value::array();
  for (int i = 0; i < 8; ++i) {
    Value job = Value::object();
    job.set("name", Value::string("job" + std::to_string(i)));
    job.set("source", Value::string(kSmallKernel));
    jobsArr.push(std::move(job));
  }
  req.set("jobs", std::move(jobsArr));
  Value resp;
  std::string error;
  ASSERT_TRUE(client->request(req, resp, error)) << error;
  const Value* results = resp.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items().size(), 8u);
  // Admission is atomic up front: rows 0..3 fill the window, rows 4..7 are
  // the deterministic queue-full tail.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fieldString(results->items()[i], "status"), "ok") << i;
  }
  for (size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(fieldString(results->items()[i], "status"), servicecode::kQueueFull) << i;
  }
  EXPECT_EQ(resp.find("rejected")->asInt(), 4);

  // The window drained with the batch; the daemon serves the next job.
  ASSERT_TRUE(client->request(makeCompileRequest("again.c", kSmallKernel, {}), resp, error))
      << error;
  EXPECT_EQ(fieldString(resp, "status"), "ok");
}

TEST(ServiceNetBackpressure, PerClientQuotaRejectsIndependentlyOfTheWindow) {
  Harness h("quota");
  h.cfg.workers = 2;
  h.cfg.maxQueue = 64; // plenty of global room
  h.cfg.maxClientJobs = 3;
  h.start();
  auto client = h.connect();

  Value req = Value::object();
  req.set("type", Value::string("batch"));
  Value jobsArr = Value::array();
  for (int i = 0; i < 5; ++i) {
    Value job = Value::object();
    job.set("source", Value::string(kSmallKernel));
    jobsArr.push(std::move(job));
  }
  req.set("jobs", std::move(jobsArr));
  Value resp;
  std::string error;
  ASSERT_TRUE(client->request(req, resp, error)) << error;
  const Value* results = resp.find("results");
  ASSERT_NE(results, nullptr);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fieldString(results->items()[i], "status"), "ok") << i;
  }
  for (size_t i = 3; i < 5; ++i) {
    EXPECT_EQ(fieldString(results->items()[i], "status"), servicecode::kQuotaExceeded) << i;
  }
}

TEST(ServiceNetBackpressure, DrainPauseRejectsThenResumeServes) {
  Harness h("pause_resume");
  h.cfg.workers = 1;
  h.start();
  auto admin = h.connect();
  auto worker = h.connect();

  Value drain = Value::object();
  drain.set("type", Value::string("drain"));
  drain.set("mode", Value::string("pause"));
  Value resp;
  std::string error;
  ASSERT_TRUE(admin->request(drain, resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "drained");
  EXPECT_FALSE(resp.find("stopped")->asBool());

  // Draining: compile jobs get the typed rejection, admin requests work.
  ASSERT_TRUE(worker->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error)) << error;
  EXPECT_EQ(errorCode(resp), servicecode::kDraining);
  ASSERT_TRUE(worker->request(pingRequest(), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "pong");

  Value resume = Value::object();
  resume.set("type", Value::string("drain"));
  resume.set("mode", Value::string("resume"));
  ASSERT_TRUE(admin->request(resume, resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "resumed");

  ASSERT_TRUE(worker->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "status"), "ok");
}

// --- lifecycle ---------------------------------------------------------------

TEST(ServiceNetLifecycle, DrainStopAnswersThenStopsAndUnlinksSocket) {
  Harness h("drain_stop");
  h.cfg.workers = 1;
  h.start();
  auto client = h.connect();
  Value drain = Value::object();
  drain.set("type", Value::string("drain"));
  Value resp;
  std::string error;
  ASSERT_TRUE(client->request(drain, resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "drained");
  EXPECT_TRUE(resp.find("stopped")->asBool());
  h.daemon->waitStopped();
  EXPECT_FALSE(h.daemon->running());
  EXPECT_FALSE(fs::exists(h.cfg.socketPath)); // no stale socket file
}

TEST(ServiceNetLifecycle, RequestDrainIsTheSignalPath) {
  Harness h("signal_drain");
  h.cfg.workers = 1;
  h.start();
  h.daemon->requestDrain(); // what the SIGTERM handler calls
  h.daemon->waitStopped();
  EXPECT_FALSE(h.daemon->running());
}

TEST(ServiceNetLifecycle, SecondDaemonRefusesALiveSocket) {
  Harness h("bind_live");
  h.cfg.workers = 1;
  h.start();
  ServiceConfig second = h.cfg;
  ServiceDaemon other(second);
  std::string error;
  EXPECT_FALSE(other.start(error));
  EXPECT_NE(error.find("already"), std::string::npos) << error;
  // A *stale* socket file (dead daemon) is reclaimed, not refused: stop the
  // first daemon but leave a file behind to simulate a crash.
  h.daemon->stop();
  std::ofstream(h.cfg.socketPath) << ""; // plain file where the socket was
  ServiceDaemon reclaim(h.cfg);
  ASSERT_TRUE(reclaim.start(error)) << error;
  reclaim.stop();
}

TEST(ServiceNetLifecycle, StatusReportsConfigAndState) {
  Harness h("status");
  h.cfg.workers = 3;
  h.cfg.maxQueue = 17;
  h.cfg.maxClientJobs = 5;
  h.cfg.cacheEnabled = true;
  h.start();
  auto client = h.connect();
  Value req = Value::object();
  req.set("type", Value::string("status"));
  Value resp;
  std::string error;
  ASSERT_TRUE(client->request(req, resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "state"), "serving");
  EXPECT_EQ(resp.find("workers")->asInt(), 3);
  EXPECT_EQ(resp.find("maxQueue")->asInt(), 17);
  EXPECT_EQ(resp.find("maxClientJobs")->asInt(), 5);
  EXPECT_EQ(resp.find("queueDepth")->asInt(), 0);
  const Value* cache = resp.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->find("enabled")->asBool());
}

TEST(ServiceNetLifecycle, ReloadRebuildsTheCacheOverItsDirectory) {
  Harness h("reload");
  h.cfg.workers = 1;
  h.cfg.cacheEnabled = true;
  h.cfg.cache.diskDir = freshDir("reload_dir");
  h.start();
  auto client = h.connect();
  Value resp;
  std::string error;
  ASSERT_TRUE(client->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error)) << error;
  ASSERT_EQ(fieldString(resp, "status"), "ok");

  Value reload = Value::object();
  reload.set("type", Value::string("reload"));
  ASSERT_TRUE(client->request(reload, resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "reloaded");

  // The fresh cache instance re-reads the disk tier: still a hit.
  ASSERT_TRUE(client->request(makeCompileRequest("k.c", kSmallKernel, {}), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "status"), "ok");
  EXPECT_TRUE(resp.find("cached")->asBool());
}

// --- metrics -----------------------------------------------------------------

TEST(ServiceNetMetrics, CountersAddUpAfterAKnownWorkload) {
  Harness h("metrics");
  h.cfg.workers = 2;
  h.cfg.cacheEnabled = true;
  h.start();
  auto client = h.connect();
  Value resp;
  std::string error;
  std::vector<double> jobMs; // every job's serviceMs, as its response reports it
  const auto compile = [&](const char* name, const char* source) {
    ASSERT_TRUE(client->request(makeCompileRequest(name, source, {}), resp, error)) << error;
    jobMs.push_back(resp.find("serviceMs")->asDouble());
  };
  // Workload: 3 compiles of the same kernel (1 miss + 2 hits), 1 frontend
  // error, 1 unknown-type protocol error.
  for (int i = 0; i < 3; ++i) {
    compile("k.c", kSmallKernel);
    ASSERT_EQ(fieldString(resp, "status"), "ok");
  }
  compile("bad.c", "int x");
  std::string raw;
  ASSERT_TRUE(client->requestRaw("{\"proto\":\"roccc-ccd-v1\",\"type\":\"zap\"}", raw, error))
      << error;

  Value m;
  Value req = Value::object();
  req.set("type", Value::string("metrics"));
  ASSERT_TRUE(client->request(req, m, error)) << error;
  EXPECT_EQ(m.find("jobs")->find("admitted")->asInt(), 4);
  EXPECT_EQ(m.find("jobs")->find("completed")->asInt(), 4);
  EXPECT_EQ(m.find("outcomes")->find("ok")->asInt(), 3);
  EXPECT_EQ(m.find("outcomes")->find("frontend-error")->asInt(), 1);
  EXPECT_EQ(m.find("cache")->find("hits")->asInt(), 2);
  EXPECT_EQ(m.find("cache")->find("misses")->asInt(), 2); // the error compiles too (negative cache)
  EXPECT_EQ(m.find("requests")->find("compile")->asInt(), 4);
  EXPECT_EQ(m.find("requests")->find("protocolErrors")->asInt(), 1);
  EXPECT_EQ(m.find("queueDepth")->asInt(), 0);
  const Value* svc = m.find("serviceMs");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->find("count")->asInt(), 4);
  EXPECT_GT(svc->find("p95Ms")->asDouble(), 0.0);
  EXPECT_GE(svc->find("p95Ms")->asDouble(), svc->find("p50Ms")->asDouble());

  // Eight more hits make 10 of the 12 jobs memory hits. The median job is
  // a hit, and p50Ms is the upper bound of its bucket: at most 2.5 times
  // its time, since the buckets are log-spaced 1-2-5 from 0.01 ms. An
  // optimized build serves a hit in tens of microseconds, so p50Ms reads
  // well under the 0.5 ms that a lowest bucket of 0.5 ms would report.
  for (int i = 0; i < 8; ++i) {
    compile("k.c", kSmallKernel);
    ASSERT_TRUE(resp.find("cached")->asBool());
  }
  ASSERT_TRUE(client->request(req, m, error)) << error;
  EXPECT_EQ(m.find("cache")->find("hits")->asInt(), 10);
  EXPECT_EQ(m.find("jobs")->find("admitted")->asInt(), 12);
  svc = m.find("serviceMs");
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->find("count")->asInt(), 12);
  ASSERT_EQ(jobMs.size(), 12u);
  std::sort(jobMs.begin(), jobMs.end());
  const double medianJobMs = jobMs[5]; // rank ceil(0.5 * 12)
  const double p50 = svc->find("p50Ms")->asDouble();
  EXPECT_GE(p50, medianJobMs);
  EXPECT_LE(p50, std::max(0.01, 2.5 * medianJobMs)) << "median job " << medianJobMs << " ms";
}

// --- fault-injection soak ----------------------------------------------------

TEST(ServiceNetSoak, InjectedFaultsAreTypedRowsAndTheDaemonServesOn) {
  Harness h("soak");
  h.cfg.workers = 2;
  h.start();
  auto client = h.connect();
  Value resp;
  std::string error;
  // Rounds of injected faults at different pipeline depths, each answered
  // as a typed internal-error row; a clean compile follows every round.
  const char* faultPoints[] = {"driver.job", "frontend.parse", "dp.build", "vhdl.emit"};
  for (int round = 0; round < 3; ++round) {
    for (const char* point : faultPoints) {
      Value options = Value::object();
      options.set("injectFault", Value::string(point));
      ASSERT_TRUE(client->request(makeCompileRequest("f.c", kSmallKernel, options), resp, error))
          << error;
      EXPECT_EQ(fieldString(resp, "type"), "result") << point;
      EXPECT_EQ(fieldString(resp, "status"), "internal-error") << point;
    }
    ASSERT_TRUE(client->request(makeCompileRequest("ok.c", kSmallKernel, {}), resp, error))
        << error;
    EXPECT_EQ(fieldString(resp, "status"), "ok") << "round " << round;
  }
}

// --- concurrent load ---------------------------------------------------------

TEST(ServiceNetLoad, StampedeOf256ConnectionsStaysByteIdentical) {
  Harness h("load256");
  h.cfg.workers = 4;
  h.cfg.maxQueue = 512;       // admit the whole stampede
  h.cfg.maxClientJobs = 8;    // each connection sends one job
  h.cfg.cacheEnabled = true;  // stampede coalesces onto 9 real compiles
  h.start();

  // Serial reference bytes per kernel, via the same contained job body.
  const size_t kKernels = std::size(bench::kTable1Kernels);
  std::vector<std::string> ref(kKernels);
  for (size_t k = 0; k < kKernels; ++k) {
    CompileOptions o;
    if (bench::kTable1Kernels[k].targetStageDelayNs > 0) {
      o.dpOptions.targetStageDelayNs = bench::kTable1Kernels[k].targetStageDelayNs;
    }
    const CompileResult r = runContainedJob({"ref", bench::kTable1Kernels[k].source, o});
    ASSERT_TRUE(r.ok) << bench::kTable1Kernels[k].name;
    ref[k] = r.vhdl;
  }

  constexpr int kClients = 256;
  std::vector<std::string> got(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const auto& kernel = bench::kTable1Kernels[c % kKernels];
      ServiceClient client;
      std::string error;
      if (!client.connect(h.cfg.socketPath, error)) {
        failures[c] = "connect: " + error;
        return;
      }
      Value options = Value::object();
      if (kernel.targetStageDelayNs > 0) {
        options.set("targetNs", Value::number(kernel.targetStageDelayNs));
      }
      Value resp;
      if (!client.request(makeCompileRequest(kernel.name, kernel.source, options), resp, error)) {
        failures[c] = "request: " + error;
        return;
      }
      if (fieldString(resp, "status") != "ok") {
        failures[c] = "status: " + resp.dump();
        return;
      }
      got[c] = fieldString(resp, "vhdl");
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
    EXPECT_EQ(got[c], ref[c % kKernels]) << "client " << c;
  }

  // The daemon is still healthy after the stampede.
  auto client = h.connect();
  Value resp;
  std::string error;
  ASSERT_TRUE(client->request(pingRequest(), resp, error)) << error;
  EXPECT_EQ(fieldString(resp, "type"), "pong");
}

} // namespace
} // namespace roccc
