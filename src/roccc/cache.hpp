// roccc::CompileCache — a content-addressed, two-tier compile-result cache
// for the batch driver.
//
// PR 3's determinism guarantee (a compile's output bytes are a pure function
// of source + options; DESIGN.md §8, docs/CONCURRENCY.md) is exactly the
// precondition that makes result caching sound: if two jobs have the same
// cache key, serving the stored artifacts is indistinguishable — byte for
// byte — from re-running the compile. The common batch workloads (regression
// sweeps, unroll-factor scans, fuzz re-runs) repeat identical (source,
// options) pairs constantly; the cache turns them from O(jobs) compiles into
// O(distinct jobs).
//
// Key derivation (docs/CACHING.md has the full walkthrough):
//
//   key = SHA-256( schema version || normalized source bytes ||
//                  canonicalized CompileOptions || fault-injection salt )
//
//   - "normalized source" folds CRLF / lone CR line endings to LF — the one
//     byte-level difference the front end provably cannot observe.
//   - "canonicalized options" serializes every *semantic* field of
//     CompileOptions in a fixed order. Presentation-only fields (the
//     --print-after / --print-after-all snapshot requests, and roccc-cc's
//     --quiet, which never reaches CompileOptions) are deliberately
//     excluded so they cannot fragment cache keys.
//   - the schema version covers the compiler itself: bump kCacheSchema when
//     code generation changes, and every old entry silently misses.
//   - CompileOptions::injectFaultAt participates as a salt, so a
//     fault-armed compile can never be served a clean compile's result (or
//     vice versa).
//
// Tier 1 is an in-process sharded-mutex LRU with a byte budget; entries are
// whole CompileResult artifact sets (VHDL/Verilog bytes, pass log,
// diagnostics, outcome). Tier 2 is an optional on-disk store (roccc-cc
// --cache-dir) that survives across processes and CI runs; writes go to a
// temp file then rename into place (atomic on POSIX), and both the store
// manifest and each entry carry the schema version — corruption or a
// version mismatch reads as a silent miss, never an error.
//
// getOrCompute() is single-flight per key: when N in-flight jobs share a
// key, one caller (the leader) runs the compile while the other N-1 block
// on its shared future, so identical in-flight jobs cost one compile.
//
// Negative caching: deterministic failures (FrontendError — the input is at
// fault — and real internal errors) are cached like successes. Timeout and
// ResourceExceeded are never cached (wall-clock and memory outcomes are not
// pure functions of the key), and neither are fault-injected internal
// errors.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "roccc/compiler.hpp"

namespace roccc {

/// Cache schema version. Participates in every key and in the on-disk
/// manifest/entry headers; bump it whenever code generation or the entry
/// serialization changes so stale entries miss instead of lying.
extern const char* const kCacheSchema;

/// Canonical fixed-order serialization of every semantic CompileOptions
/// field: the compact JSON protocol options object holding every row of the
/// option table (roccc/options.hpp), in table order. Presentation-only
/// fields (pipeline print/snapshot requests) are excluded by design — see
/// the key-invariance test in tests/cache_test.cpp.
std::string canonicalizeOptions(const CompileOptions& options);

/// Line-ending normalization applied to source bytes before hashing
/// (CRLF and lone CR fold to LF; the front end cannot observe the
/// difference, so the fold widens hits without widening behaviour).
std::string normalizeSourceForKey(std::string_view source);

/// The content-addressed key for one (source, options) compile.
std::string computeCacheKey(std::string_view source, const CompileOptions& options);

/// The artifact set a cache entry stores — everything in a CompileResult
/// that outlives the compile (the heavyweight in-memory IRs — AST, MIR,
/// data path, RTL netlist — are deliberately not captured; a hit
/// materializes a CompileResult whose IR fields are empty).
struct CacheEntry {
  CompileOutcome outcome = CompileOutcome::Ok;
  std::string failedPass;
  std::string vhdl;
  /// CompileResult::vhdlSha256 (empty when the producer did not hash). Not
  /// part of the tier-2 file: a disk load recomputes it.
  std::string vhdlSha256;
  std::string verilog;
  std::string transformedSource;
  std::vector<Diagnostic> diags;
  std::vector<PassStatistics> passLog; ///< snapshots stripped

  /// Bytes this entry charges against the tier-1 budget.
  int64_t byteSize() const;

  /// Capture from / materialize into a CompileResult (byte-identical
  /// artifact fields; wall-time fields ride along, exempt as always).
  static CacheEntry fromResult(const CompileResult& result);
  CompileResult toResult() const;
};

/// Whether a finished compile may be stored: Ok and deterministic failures
/// cache; Timeout / ResourceExceeded / fault-injected runs never do.
bool isCacheable(const CompileResult& result, const CompileOptions& options);

/// Monotonic counters, readable at any time (CompileCache::stats()).
struct CacheStats {
  int64_t hits = 0;         ///< tier-1 lookups served from memory
  int64_t misses = 0;       ///< lookups that ran the compile
  int64_t coalesced = 0;    ///< single-flight waiters served by a leader
  int64_t evictions = 0;    ///< tier-1 entries evicted by the byte budget
  int64_t uncacheable = 0;  ///< computed results not stored (policy)
  int64_t diskHits = 0;     ///< tier-2 loads (also counted in `misses`' stead)
  int64_t diskStores = 0;   ///< tier-2 entry files written
  int64_t bytesInUse = 0;   ///< current tier-1 resident bytes
  int64_t entries = 0;      ///< current tier-1 entry count

  /// {"hits":..,"misses":..,...} — embedded in roccc-cc --stats-json.
  std::string toJson() const;
};

struct CacheConfig {
  /// Tier-1 byte budget; least-recently-used entries evict past it.
  int64_t maxBytes = 256ll * 1024 * 1024;
  /// Tier-2 directory; empty disables the disk store.
  std::string diskDir;
  /// Mutex shards for tier 1 (power of two).
  int shards = 16;
};

class CompileCache {
 public:
  explicit CompileCache(CacheConfig config = {});
  ~CompileCache();
  CompileCache(const CompileCache&) = delete;
  CompileCache& operator=(const CompileCache&) = delete;

  /// The single entry point the batch driver uses. Looks `key` up in tier 1
  /// then tier 2; on a miss, exactly one caller per key runs `compute`
  /// (single-flight) while concurrent callers of the same key wait for its
  /// result. `options` only informs the store policy (isCacheable).
  /// `wasHit`, when non-null, reports whether the result came from the
  /// cache (hit or coalesced wait) rather than from this call's compute.
  CompileResult getOrCompute(const std::string& key, const CompileOptions& options,
                             const std::function<CompileResult()>& compute,
                             bool* wasHit = nullptr);

  /// Direct probe (tier 1 then tier 2), no compute, no single-flight.
  std::shared_ptr<const CacheEntry> lookup(const std::string& key);
  /// Unconditional insert (tests and tools; getOrCompute is the driver path).
  void insert(const std::string& key, CacheEntry entry);

  CacheStats stats() const;
  const CacheConfig& config() const { return config_; }
  /// True when the tier-2 store is configured and passed its version check.
  bool diskEnabled() const;

 private:
  struct Shard;
  struct InFlight;
  struct DiskStore;

  Shard& shardFor(const std::string& key);
  void insertLocked(Shard& shard, const std::string& key, std::shared_ptr<const CacheEntry> entry);

  CacheConfig config_;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<DiskStore> disk_;

  mutable std::mutex statsMutex_;
  CacheStats stats_;
};

} // namespace roccc
