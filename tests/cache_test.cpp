// Tests for the content-addressed compile cache (src/roccc/cache.hpp):
// SHA-256 correctness, key derivation (the compiler fingerprint, sensitivity
// to every semantic option, invariance to presentation-only ones), tier-1
// hit/miss/eviction behaviour, single-flight deduplication under a worker
// stampede, the negative-caching policy, and the tier-2 disk store (warm
// restart, corrupt entries — a silent miss, never an error — and the
// deletion of other compilers' generations when a store opens).
//
// The load-bearing property throughout: a result served from the cache is
// byte-identical to a fresh compile of the same (source, options) — the
// same artifact bytes the determinism suite (driver_test.cpp) guarantees
// across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "../bench/kernels.hpp"
#include "roccc/cache.hpp"
#include "roccc/driver.hpp"
#include "roccc/options.hpp"
#include "support/hash.hpp"

namespace roccc {
namespace {

namespace fs = std::filesystem;

// A small valid kernel, cheap enough to compile hundreds of times.
const char* kSmallKernel = "void k(const int8 A[16], int16 C[12]) {\n"
                           "  int i;\n"
                           "  for (i = 0; i < 12; i++) { C[i] = A[i] + A[i+4]; }\n"
                           "}\n";

std::vector<CompileJob> table1Jobs() {
  std::vector<CompileJob> jobs;
  for (const auto& k : bench::kTable1Kernels) {
    CompileOptions o;
    if (k.targetStageDelayNs > 0) o.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    jobs.push_back({k.name, k.source, o});
  }
  return jobs;
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Fresh per-test scratch directory under the gtest temp root.
std::string freshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "roccc_cache_test_" + tag;
  fs::remove_all(dir);
  return dir;
}

// --- SHA-256 -----------------------------------------------------------------

TEST(Sha256, Fips180KnownVectors) {
  EXPECT_EQ(sha256Hex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One-block boundary cases: 55 bytes (longest single-block message) and
  // 64 bytes (padding spills into a second block).
  EXPECT_EQ(sha256Hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(sha256Hex(std::string(64, 'a')),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
  EXPECT_EQ(sha256Hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingUpdatesMatchOneShot) {
  const std::string data(12345, 'x');
  Sha256 h;
  for (size_t i = 0; i < data.size(); i += 7) {
    h.update(std::string_view(data).substr(i, 7));
  }
  EXPECT_EQ(h.hex(), sha256Hex(data));
}

// --- key derivation ----------------------------------------------------------

/// A value different from `v`'s, valid for `row`: the next integer, twice
/// the double, the other enum token, the negated bool, a (comment-only,
/// hence valid) timing-model text.
json::Value nonDefaultSample(const OptionRow& row, const json::Value& v) {
  switch (row.kind) {
    case OptionKind::Bool: return json::Value::boolean(!v.asBool());
    case OptionKind::Int: return json::Value::number(v.asInt() + 1);
    case OptionKind::PositiveDouble: return json::Value::number(v.asDouble() * 2);
    case OptionKind::Enum:
      return json::Value::string(v.asString() == row.tokens[0] ? row.tokens[1] : row.tokens[0]);
    case OptionKind::String:
    case OptionKind::FileContents: return json::Value::string(v.asString() + "# sample\n");
  }
  return v;
}

TEST(CacheKey, SensitiveToEverySemanticOption) {
  const CompileOptions base;
  const std::string baseKey = computeCacheKey(kSmallKernel, base);
  EXPECT_EQ(baseKey.size(), 64u);

  // Every row of the option table is a semantic field: moving any one of
  // them must move the key, or a stale hit would serve artifacts from a
  // different compile.
  for (const OptionRow& row : optionTable()) {
    CompileOptions o;
    std::string error;
    ASSERT_TRUE(setOptionFromJson(row, nonDefaultSample(row, optionToJson(row, base)), o, error))
        << row.key << ": " << error;
    EXPECT_NE(canonicalizeOptions(o), canonicalizeOptions(base)) << row.key;
    EXPECT_NE(computeCacheKey(kSmallKernel, o), baseKey) << row.key;
  }
  EXPECT_NE(computeCacheKey("void other() {}", base), baseKey) << "source bytes";
}

TEST(CacheKey, DefaultOptionsCanonicalTextIsPinned) {
  // The protocol options object with every option-table row, in table
  // order. A change here changes every key.
  EXPECT_EQ(canonicalizeOptions({}),
            "{\"kernel\":\"\",\"unroll\":1,\"autoUnrollBudget\":0,\"fullUnroll\":true,"
            "\"lutConvert\":true,\"optimize\":true,\"targetNs\":4,\"pipeline\":true,"
            "\"widthMode\":\"range\",\"multStyle\":\"lut\",\"timingModel\":\"\","
            "\"verilog\":false,\"verifyEach\":false,\"timeoutMs\":0,"
            "\"maxIrNodes\":0,\"maxUnrollProduct\":0,\"maxDepth\":256,\"injectFault\":\"\"}");
}

TEST(CompilerFingerprint, MatchesTheCheckedOutSources) {
  // The fingerprint the build compiled in is the SHA-256 of one
  // "<path> <sha256>\n" line per src/**/*.{cpp,hpp}, sorted by path: any
  // source edit the build missed would leave it stale.
  const fs::path root(ROCCC_SRC_DIR);
  std::vector<std::string> paths;
  for (const auto& f : fs::recursive_directory_iterator(root)) {
    const std::string ext = f.path().extension().string();
    if (f.is_regular_file() && (ext == ".cpp" || ext == ".hpp")) {
      paths.push_back(fs::relative(f.path(), root).generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GT(paths.size(), 50u);
  Sha256 listing;
  for (const std::string& path : paths) {
    listing.update(path + " " + sha256Hex(readFile(root / path)) + "\n");
  }
  EXPECT_EQ(kCompilerFingerprint, listing.hex());
}

TEST(CacheKey, FingerprintIsPartOfTheKey) {
  const CompileOptions o;
  EXPECT_EQ(computeCacheKey(kSmallKernel, o), computeCacheKey(kSmallKernel, o, kCompilerFingerprint));
  EXPECT_NE(computeCacheKey(kSmallKernel, o), computeCacheKey(kSmallKernel, o, "another compiler"));
}

TEST(CacheKey, TimingOptionsPartitionHitsButStayByteIdenticalWithinKey) {
  // Two stage-delay targets are two distinct cache entries (latch placement
  // puts registers differently), and a repeat of either target is a warm hit
  // serving byte-identical VHDL.
  CompileOptions loose;
  loose.dpOptions.targetStageDelayNs = 12.0;
  CompileOptions tight;
  tight.dpOptions.targetStageDelayNs = 2.0;
  ASSERT_NE(computeCacheKey(bench::kFir, loose), computeCacheKey(bench::kFir, tight));

  std::vector<CompileJob> jobs{{"loose", bench::kFir, loose}, {"tight", bench::kFir, tight}};
  CompileService service(2);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);
  const BatchResult cold = service.compileBatch(jobs);
  ASSERT_TRUE(cold.allOk());
  EXPECT_EQ(cold.cacheMisses, 2);
  EXPECT_NE(cold.results[0].vhdl, cold.results[1].vhdl); // staging really differs

  const BatchResult warm = service.compileBatch(jobs);
  ASSERT_TRUE(warm.allOk());
  EXPECT_EQ(warm.cacheHits, 2);
  EXPECT_EQ(warm.results[0].vhdl, cold.results[0].vhdl);
  EXPECT_EQ(warm.results[1].vhdl, cold.results[1].vhdl);
}

TEST(CacheKey, VerilogRequestIsPartOfTheKey) {
  // An entry compiled without Verilog holds none, so a request for Verilog
  // must miss it rather than be served an empty text.
  CompileOptions withVerilog;
  withVerilog.emitVerilog = true;
  ASSERT_NE(computeCacheKey(kSmallKernel, withVerilog), computeCacheKey(kSmallKernel, {}));

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);
  const BatchResult plain = service.compileBatch({{"k", kSmallKernel, {}}});
  ASSERT_TRUE(plain.allOk());
  EXPECT_TRUE(plain.results[0].verilog.empty());
  const BatchResult verilog = service.compileBatch({{"k", kSmallKernel, withVerilog}});
  ASSERT_TRUE(verilog.allOk());
  EXPECT_EQ(verilog.cacheMisses, 1);
  EXPECT_EQ(verilog.results[0].verilog, Compiler(withVerilog).compileSource(kSmallKernel).verilog);
  EXPECT_FALSE(verilog.results[0].verilog.empty());
  EXPECT_EQ(verilog.results[0].vhdl, plain.results[0].vhdl);
}

TEST(CacheKey, IgnoresPresentationOnlyFields) {
  // --print-after-all / --print-after request stderr IR snapshots; they do
  // not change the compiled artifacts and must not fragment the key space.
  // (roccc-cc's --quiet never reaches CompileOptions at all.)
  const CompileOptions base;
  const std::string baseKey = computeCacheKey(kSmallKernel, base);

  CompileOptions printAll;
  printAll.pipeline.printAfterAll = true;
  EXPECT_EQ(computeCacheKey(kSmallKernel, printAll), baseKey);

  CompileOptions printSome;
  printSome.pipeline.printAfter = {"unroll", "pipeline"};
  EXPECT_EQ(computeCacheKey(kSmallKernel, printSome), baseKey);
}

TEST(CacheKey, LineEndingNormalizationWidensHitsOnly) {
  const std::string lf = "void k() {\n  int i;\n}\n";
  const std::string crlf = "void k() {\r\n  int i;\r\n}\r\n";
  const std::string cr = "void k() {\r  int i;\r}\r";
  const CompileOptions o;
  EXPECT_EQ(computeCacheKey(lf, o), computeCacheKey(crlf, o));
  EXPECT_EQ(computeCacheKey(lf, o), computeCacheKey(cr, o));
  // Any other byte change still moves the key.
  EXPECT_NE(computeCacheKey(lf, o), computeCacheKey("void k() {\n  int j;\n}\n", o));
  EXPECT_EQ(normalizeSourceForKey("a\r\nb\rc\n"), "a\nb\nc\n");
}

// --- store policy ------------------------------------------------------------

TEST(CachePolicy, DeterministicOutcomesCacheEnvironmentalOnesDoNot) {
  const CompileOptions clean;
  CompileResult r;
  r.outcome = CompileOutcome::Ok;
  EXPECT_TRUE(isCacheable(r, clean));
  r.outcome = CompileOutcome::FrontendError;
  EXPECT_TRUE(isCacheable(r, clean));
  r.outcome = CompileOutcome::InternalError;
  EXPECT_TRUE(isCacheable(r, clean));
  r.outcome = CompileOutcome::Timeout;
  EXPECT_FALSE(isCacheable(r, clean));
  r.outcome = CompileOutcome::ResourceExceeded;
  EXPECT_FALSE(isCacheable(r, clean));

  // Fault-armed compiles are harness artifacts: never stored, any outcome.
  CompileOptions armed;
  armed.injectFaultAt = "driver.job";
  r.outcome = CompileOutcome::Ok;
  EXPECT_FALSE(isCacheable(r, armed));
  r.outcome = CompileOutcome::InternalError;
  EXPECT_FALSE(isCacheable(r, armed));
}

// --- tier 1 through the batch driver ----------------------------------------

TEST(CompileCache, HitIsByteIdenticalToUncachedCompile) {
  CompileOptions withVerilog;
  withVerilog.emitVerilog = true;
  std::vector<CompileJob> jobs{{"k", kSmallKernel, withVerilog}};

  const BatchResult uncached = CompileService(1).compileBatch(jobs);
  ASSERT_TRUE(uncached.allOk());
  EXPECT_EQ(uncached.cacheHits, 0);
  EXPECT_EQ(uncached.cacheMisses, 0);

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  const BatchResult cold = service.compileBatch(jobs);
  ASSERT_TRUE(cold.allOk());
  EXPECT_EQ(cold.cacheHits, 0);
  EXPECT_EQ(cold.cacheMisses, 1);

  const BatchResult warm = service.compileBatch(jobs);
  ASSERT_TRUE(warm.allOk());
  EXPECT_EQ(warm.cacheHits, 1);
  EXPECT_EQ(warm.cacheMisses, 0);

  for (const BatchResult* b : {&cold, &warm}) {
    EXPECT_EQ(b->results[0].vhdl, uncached.results[0].vhdl);
    EXPECT_EQ(b->results[0].verilog, uncached.results[0].verilog);
    ASSERT_EQ(b->results[0].passLog.size(), uncached.results[0].passLog.size());
    for (size_t p = 0; p < uncached.results[0].passLog.size(); ++p) {
      EXPECT_EQ(b->results[0].passLog[p].name, uncached.results[0].passLog[p].name);
      EXPECT_EQ(b->results[0].passLog[p].counters, uncached.results[0].passLog[p].counters);
    }
  }
  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytesInUse, 0);
}

TEST(CompileCache, StampedeOfIdenticalJobsCompilesOnce) {
  // 16 copies of one job on 8 workers against an empty cache: exactly one
  // compile runs; the other 15 are tier-1 hits or single-flight waiters.
  const CompileJob job{"dct", bench::kDct, {}};
  std::vector<CompileJob> jobs(16, job);

  CompileService service(8);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  const BatchResult batch = service.compileBatch(jobs);
  ASSERT_TRUE(batch.allOk());
  EXPECT_EQ(batch.cacheMisses, 1);
  EXPECT_EQ(batch.cacheHits, 15);
  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, 15);
  for (size_t i = 1; i < jobs.size(); ++i) {
    ASSERT_EQ(batch.results[i].vhdl, batch.results[0].vhdl) << "slot " << i;
  }
}

TEST(CompileCache, FrontendErrorsAreNegativelyCached) {
  std::vector<CompileJob> jobs{{"broken", "void k(const int8 A[8], int8 C[4]) { }", {}}};

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  const BatchResult cold = service.compileBatch(jobs);
  ASSERT_FALSE(cold.allOk());
  EXPECT_EQ(cold.results[0].outcome, CompileOutcome::FrontendError);
  EXPECT_EQ(cold.cacheMisses, 1);

  const BatchResult warm = service.compileBatch(jobs);
  EXPECT_EQ(warm.cacheHits, 1);
  EXPECT_EQ(warm.results[0].outcome, CompileOutcome::FrontendError);
  EXPECT_FALSE(warm.results[0].ok);
  // The replayed diagnostics are the original ones, byte for byte.
  ASSERT_EQ(warm.results[0].diags.all().size(), cold.results[0].diags.all().size());
  for (size_t d = 0; d < cold.results[0].diags.all().size(); ++d) {
    EXPECT_EQ(warm.results[0].diags.all()[d].message, cold.results[0].diags.all()[d].message);
    EXPECT_EQ(warm.results[0].diags.all()[d].loc, cold.results[0].diags.all()[d].loc);
  }
}

TEST(CompileCache, TimeoutsAreNeverCached) {
  // timeoutMs = -1: the deadline is already expired, so the job times out
  // deterministically — but Timeout is an environmental outcome and must
  // recompile every time.
  CompileOptions o;
  o.budget.timeoutMs = -1;
  std::vector<CompileJob> jobs{{"t", kSmallKernel, o}};

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  for (int round = 0; round < 2; ++round) {
    const BatchResult batch = service.compileBatch(jobs);
    EXPECT_EQ(batch.results[0].outcome, CompileOutcome::Timeout) << "round " << round;
    EXPECT_EQ(batch.cacheMisses, 1) << "round " << round;
    EXPECT_EQ(batch.cacheHits, 0) << "round " << round;
  }
  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.uncacheable, 2);
  EXPECT_EQ(stats.entries, 0);
}

TEST(CompileCache, FaultInjectedRunsAreNeverCached) {
  CompileOptions armed;
  armed.injectFaultAt = "driver.job";
  std::vector<CompileJob> jobs{{"f", kSmallKernel, armed}};

  CompileService service(1);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  for (int round = 0; round < 2; ++round) {
    const BatchResult batch = service.compileBatch(jobs);
    EXPECT_EQ(batch.results[0].outcome, CompileOutcome::InternalError) << "round " << round;
    EXPECT_EQ(batch.cacheMisses, 1) << "round " << round;
  }
  EXPECT_EQ(cache->stats().entries, 0);
}

TEST(CompileCache, ByteBudgetEvictsLeastRecentlyUsed) {
  CacheConfig cfg;
  cfg.shards = 1; // deterministic: every key in one LRU
  cfg.maxBytes = 4096;
  CompileCache cache(cfg);

  auto entryOfSize = [](size_t bytes) {
    CacheEntry e;
    e.vhdl.assign(bytes, 'v');
    return e;
  };
  // ~1.4 KB each (plus overhead): the fourth insert must push the oldest out.
  for (int i = 0; i < 4; ++i) {
    cache.insert("key" + std::to_string(i), entryOfSize(1400));
  }
  const CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.bytesInUse, 4096 + 1600); // newest always kept, even over budget
  EXPECT_EQ(cache.lookup("key0"), nullptr); // LRU tail went first
  EXPECT_NE(cache.lookup("key3"), nullptr); // newest resident
}

TEST(CompileCache, OversizedSingleEntryStaysResident) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.maxBytes = 64; // far below any entry size
  CompileCache cache(cfg);
  CacheEntry e;
  e.vhdl.assign(1000, 'v');
  cache.insert("big", e);
  EXPECT_NE(cache.lookup("big"), nullptr);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(CompileCache, ProbeCountsAHitOnceAndAMissNotAtAll) {
  // probe() is getOrCompute's tier-1 hit path alone: a resident key is one
  // hit; an absent key, a key still compiling and a key only on disk all
  // miss without counting, waiting, loading or starting a compile.
  const std::string dir = freshDir("probe");
  const CompileOptions options;
  const std::string key = computeCacheKey(kSmallKernel, options);
  CacheConfig cfg;
  cfg.diskDir = dir;
  CompileCache cache(cfg);
  const auto countsAreZero = [&cache] {
    const CacheStats s = cache.stats();
    return s.hits == 0 && s.misses == 0 && s.coalesced == 0 && s.diskHits == 0;
  };

  EXPECT_EQ(cache.probe(key), nullptr);
  EXPECT_TRUE(countsAreZero());

  // While the leader compiles, the probe misses at once.
  std::promise<void> computing, release;
  int computes = 0;
  std::thread leader([&] {
    cache.getOrCompute(key, options, [&] {
      ++computes;
      computing.set_value();
      release.get_future().wait();
      return runContainedJob({"k", kSmallKernel, options});
    });
  });
  computing.get_future().wait();
  EXPECT_EQ(cache.probe(key), nullptr);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().coalesced, 0);
  release.set_value();
  leader.join();
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  const auto entry = cache.probe(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->outcome, CompileOutcome::Ok);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  // A fresh cache over the same directory: the entry is only on disk, and
  // the probe does not read it.
  CompileCache restarted(cfg);
  EXPECT_EQ(restarted.probe(key), nullptr);
  EXPECT_EQ(restarted.stats().hits, 0);
  EXPECT_EQ(restarted.stats().diskHits, 0);
  EXPECT_EQ(restarted.stats().entries, 0);
  fs::remove_all(dir);
}

// --- tier 2: the disk store --------------------------------------------------

TEST(CompileCacheDisk, WarmRestartServesFromDisk) {
  const std::string dir = freshDir("warm_restart");
  CompileOptions withVerilog;
  withVerilog.emitVerilog = true;
  std::vector<CompileJob> jobs{{"k", kSmallKernel, withVerilog}};

  std::string coldVhdl;
  std::string coldVerilog;
  std::vector<PassStatistics> coldLog;
  {
    CompileService service(1);
    CacheConfig cfg;
    cfg.diskDir = dir;
    auto cache = std::make_shared<CompileCache>(cfg);
    ASSERT_TRUE(cache->diskEnabled());
    service.setCache(cache);
    const BatchResult cold = service.compileBatch(jobs);
    ASSERT_TRUE(cold.allOk());
    EXPECT_EQ(cold.cacheMisses, 1);
    EXPECT_EQ(cache->stats().diskStores, 1);
    coldVhdl = cold.results[0].vhdl;
    coldVerilog = cold.results[0].verilog;
    coldLog = cold.results[0].passLog;
    EXPECT_FALSE(coldVerilog.empty());
  }
  // A brand-new cache object (a "new process") over the same directory:
  // tier 1 is empty, the hit comes from disk.
  {
    CompileService service(1);
    CacheConfig cfg;
    cfg.diskDir = dir;
    auto cache = std::make_shared<CompileCache>(cfg);
    service.setCache(cache);
    const BatchResult warm = service.compileBatch(jobs);
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(warm.cacheHits, 1);
    EXPECT_EQ(warm.cacheMisses, 0);
    EXPECT_EQ(cache->stats().diskHits, 1);
    EXPECT_EQ(warm.results[0].vhdl, coldVhdl);
    EXPECT_EQ(warm.results[0].verilog, coldVerilog);
    // The pass log comes back whole, wall times included.
    const auto& log = warm.results[0].passLog;
    ASSERT_EQ(log.size(), coldLog.size());
    for (size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].name, coldLog[i].name);
      EXPECT_EQ(log[i].layer, coldLog[i].layer);
      EXPECT_EQ(log[i].ran, coldLog[i].ran);
      EXPECT_EQ(log[i].wallMs, coldLog[i].wallMs) << log[i].name;
      EXPECT_EQ(log[i].counters, coldLog[i].counters) << log[i].name;
    }
  }
  fs::remove_all(dir);
}

TEST(CompileCache, EntryCarriesTheVhdlDigest) {
  CompileResult r = runContainedJob({"k", kSmallKernel, {}});
  ASSERT_TRUE(r.ok);
  const CacheEntry plain = CacheEntry::fromResult(r);
  EXPECT_TRUE(plain.vhdlSha256.empty()); // the compiler itself never hashes
  r.vhdlSha256 = sha256Hex(r.vhdl);
  const CacheEntry digested = CacheEntry::fromResult(r);
  EXPECT_EQ(digested.vhdlSha256, r.vhdlSha256);
  EXPECT_EQ(digested.toResult().vhdlSha256, r.vhdlSha256);
  EXPECT_EQ(digested.byteSize() - plain.byteSize(), 64);
}

TEST(CompileCacheDisk, DigestIsRecomputedOnLoadNotStored) {
  const std::string dir = freshDir("digest");
  const CompileOptions options;
  const std::string key = computeCacheKey(kSmallKernel, options);
  std::string digest;
  {
    CacheConfig cfg;
    cfg.diskDir = dir;
    CompileCache cache(cfg);
    auto compute = [&] {
      CompileResult r = runContainedJob({"k", kSmallKernel, options});
      r.vhdlSha256 = sha256Hex(r.vhdl);
      return r;
    };
    const CompileResult miss = cache.getOrCompute(key, options, compute);
    digest = miss.vhdlSha256;
    ASSERT_EQ(digest.size(), 64u);
    bool hit = false;
    EXPECT_EQ(cache.getOrCompute(key, options, compute, &hit).vhdlSha256, digest);
    EXPECT_TRUE(hit);
  }
  // The entry document holds no digest.
  const std::string file = readFile(fs::path(dir) / kCompilerFingerprint / (key + ".entry"));
  ASSERT_FALSE(file.empty());
  EXPECT_EQ(file.find(digest), std::string::npos);
  // A new cache over the directory computes it as the entry is loaded.
  CacheConfig cfg;
  cfg.diskDir = dir;
  CompileCache cache(cfg);
  const auto entry = cache.lookup(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->vhdlSha256, digest);
  fs::remove_all(dir);
}

TEST(CompileCacheDisk, CorruptEntryIsASilentMiss) {
  const std::string dir = freshDir("corrupt");
  std::vector<CompileJob> jobs{{"k", kSmallKernel, {}}};
  const std::string key = computeCacheKey(jobs[0].source, jobs[0].options);

  std::string goodVhdl;
  {
    CacheConfig cfg;
    cfg.diskDir = dir;
    CompileService service(1);
    auto cache = std::make_shared<CompileCache>(cfg);
    service.setCache(cache);
    goodVhdl = service.compileBatch(jobs).results[0].vhdl;
  }
  const std::string entryFile = dir + "/" + kCompilerFingerprint + "/" + key + ".entry";
  json::Value good;
  std::string error;
  ASSERT_TRUE(json::parse(readFile(entryFile), good, error)) << error;
  const auto edited = [&good](const char* field, json::Value v) {
    json::Value doc = good;
    doc.set(field, std::move(v));
    return doc.dump();
  };

  // Each kind of damage must read as a miss and recompile to the same
  // bytes, never error out or serve garbage.
  const std::vector<std::string> damage = {
      "",                                              // truncated to nothing
      good.dump().substr(0, good.dump().size() / 2),   // truncated mid-document
      edited("outcome", "bogus"),                      // an out-of-range enum
      edited("diags", json::Value::object()),          // a mistyped field
      std::string(100, '\xff'),                        // binary garbage
      edited("key", computeCacheKey("void other() {}", {})), // another key's document
  };
  for (const std::string& bytes : damage) {
    {
      std::ofstream out(entryFile, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    CacheConfig cfg;
    cfg.diskDir = dir;
    CompileService service(1);
    auto cache = std::make_shared<CompileCache>(cfg);
    service.setCache(cache);
    const BatchResult batch = service.compileBatch(jobs);
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(batch.cacheMisses, 1); // the damaged entry did not hit
    EXPECT_EQ(batch.results[0].vhdl, goodVhdl);
  }
  fs::remove_all(dir);
}

TEST(CompileCacheDisk, OpeningAStoreDropsOtherGenerations) {
  // Each compiler keeps its entries in <dir>/<fingerprint>/. Opening a
  // store deletes another compiler's generation and the flat layout older
  // stores wrote, and leaves everything else in the directory alone.
  const std::string dir = freshDir("generations");
  const CompileOptions options;
  const std::string theirs = computeCacheKey(kSmallKernel, options, "another compiler");
  const fs::path other = fs::path(dir) / sha256Hex("another compiler");
  {
    // Plant their generation: an entry this build writes, moved to a
    // directory named by the other fingerprint.
    const std::string staging = freshDir("generations_staging");
    CacheConfig cfg;
    cfg.diskDir = staging;
    CompileCache cache(cfg);
    cache.getOrCompute(theirs, options, [&] { return runContainedJob({"k", kSmallKernel, options}); });
    ASSERT_EQ(cache.stats().diskStores, 1);
    fs::create_directories(dir);
    fs::rename(fs::path(staging) / kCompilerFingerprint, other);
    fs::remove_all(staging);
  }
  ASSERT_TRUE(fs::exists(other / (theirs + ".entry")));
  const fs::path flat = fs::path(dir) / (theirs + ".entry");
  fs::copy_file(other / (theirs + ".entry"), flat);
  for (const char* name : {"manifest", "stale.entry.tmp.4242", "README"}) {
    std::ofstream(fs::path(dir) / name) << "x";
  }
  fs::create_directories(fs::path(dir) / "notes");

  CacheConfig cfg;
  cfg.diskDir = dir;
  auto cache = std::make_shared<CompileCache>(cfg);
  ASSERT_TRUE(cache->diskEnabled());
  EXPECT_FALSE(fs::exists(other));
  EXPECT_FALSE(fs::exists(flat));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "manifest"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "stale.entry.tmp.4242"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "README"));
  EXPECT_TRUE(fs::is_directory(fs::path(dir) / "notes"));

  CompileService service(1);
  service.setCache(cache);
  const BatchResult batch = service.compileBatch({{"k", kSmallKernel, options}});
  ASSERT_TRUE(batch.allOk());
  EXPECT_EQ(batch.cacheMisses, 1);
  EXPECT_EQ(cache->stats().diskHits, 0);
  EXPECT_EQ(cache->stats().diskStores, 1);
  const std::string ours = computeCacheKey(kSmallKernel, options);
  EXPECT_TRUE(fs::exists(fs::path(dir) / kCompilerFingerprint / (ours + ".entry")));
  EXPECT_FALSE(fs::exists(fs::path(dir) / (ours + ".entry")));
  fs::remove_all(dir);
}

// --- golden warm batch -------------------------------------------------------

TEST(CompileCacheGolden, WarmTable1BatchMatchesGoldenBytes) {
  // The nine Table 1 kernels, compiled cold then served warm: the warm
  // batch must reproduce the checked-in golden VHDL byte for byte — a
  // cache hit is held to the same standard as a fresh compile.
  const auto jobs = table1Jobs();
  CompileService service(8);
  auto cache = std::make_shared<CompileCache>();
  service.setCache(cache);

  const BatchResult cold = service.compileBatch(jobs);
  ASSERT_TRUE(cold.allOk());
  const BatchResult warm = service.compileBatch(jobs);
  ASSERT_TRUE(warm.allOk());
  EXPECT_EQ(warm.cacheHits, static_cast<int>(jobs.size()));
  EXPECT_EQ(warm.cacheMisses, 0);

  for (size_t i = 0; i < jobs.size(); ++i) {
    const std::string path = std::string(ROCCC_GOLDEN_DIR) + "/" + jobs[i].name + ".vhd";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(warm.results[i].vhdl, buf.str()) << jobs[i].name;
  }
}

} // namespace
} // namespace roccc
