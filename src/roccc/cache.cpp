#include "roccc/cache.hpp"

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include <unistd.h>

#include "roccc/options.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace roccc {

// Bump on any change to code generation, key derivation, or the entry
// serialization below. Old tier-2 stores then read as silent misses.
const char* const kCacheSchema = "roccc-cache-v6";

// --- key derivation ----------------------------------------------------------

std::string normalizeSourceForKey(std::string_view source) {
  std::string out;
  out.reserve(source.size());
  for (size_t i = 0; i < source.size(); ++i) {
    if (source[i] == '\r') {
      out += '\n';
      if (i + 1 < source.size() && source[i + 1] == '\n') ++i;
      continue;
    }
    out += source[i];
  }
  return out;
}

std::string canonicalizeOptions(const CompileOptions& o) {
  // The option table's rows are exactly the semantic fields; presentation
  // fields (pipeline.printAfter*) are not rows (see the
  // CacheKey.IgnoresPresentationOnlyFields test). Strings are quoted and
  // escaped, doubles printed in their shortest round-trip text, so distinct
  // options never share a text.
  json::Value all = json::Value::object();
  for (const OptionRow& row : optionTable()) all.set(row.key, optionToJson(row, o));
  return all.dump();
}

std::string computeCacheKey(std::string_view source, const CompileOptions& options) {
  const std::string normalized = normalizeSourceForKey(source);
  const std::string canonical = canonicalizeOptions(options);
  Sha256 h;
  h.update(kCacheSchema);
  h.update("\n");
  h.update(canonical);
  h.update("\n");
  h.update("src:");
  h.update(std::to_string(normalized.size()));
  h.update("\n");
  h.update(normalized);
  return h.hex();
}

// --- entries -----------------------------------------------------------------

int64_t CacheEntry::byteSize() const {
  // Approximate resident size for the tier-1 byte budget: the blobs plus a
  // small fixed overhead per container element.
  int64_t n = 128;
  n += static_cast<int64_t>(failedPass.size() + vhdl.size() + vhdlSha256.size() + verilog.size());
  for (const auto& d : diags) n += 48 + static_cast<int64_t>(d.message.size());
  for (const auto& p : passLog) {
    n += 96 + static_cast<int64_t>(p.name.size());
    for (const auto& [k, v] : p.counters) n += 32 + static_cast<int64_t>(k.size());
  }
  return n;
}

CacheEntry CacheEntry::fromResult(const CompileResult& r) {
  CacheEntry e;
  e.outcome = r.outcome;
  e.failedPass = r.failedPass;
  e.vhdl = r.vhdl;
  e.vhdlSha256 = r.vhdlSha256;
  e.verilog = r.verilog;
  e.diags = r.diags.all();
  e.passLog = r.passLog;
  for (auto& p : e.passLog) p.snapshot.clear();
  return e;
}

CompileResult CacheEntry::toResult() const {
  CompileResult r;
  r.outcome = outcome;
  r.failedPass = failedPass;
  r.vhdl = vhdl;
  r.vhdlSha256 = vhdlSha256;
  r.verilog = verilog;
  for (const auto& d : diags) r.diags.report(d.severity, d.loc, d.message);
  r.passLog = passLog;
  r.ok = outcome == CompileOutcome::Ok && !r.diags.hasErrors();
  return r;
}

bool isCacheable(const CompileResult& result, const CompileOptions& options) {
  // A fault-armed compile is a harness artifact, not a property of the
  // input — never cache it (its key is salted besides).
  if (!options.injectFaultAt.empty()) return false;
  switch (result.outcome) {
    case CompileOutcome::Ok:
    case CompileOutcome::FrontendError:
    case CompileOutcome::InternalError:
      // Deterministic functions of (source, options): positive entries and
      // negative entries both replay exactly.
      return true;
    case CompileOutcome::Timeout:
    case CompileOutcome::ResourceExceeded:
      // Wall-clock and allocator outcomes are environmental, not content.
      return false;
  }
  return false;
}

json::Value CacheStats::toJson() const {
  return json::Value::object({{"hits", hits}, {"misses", misses}, {"coalesced", coalesced},
                              {"evictions", evictions}, {"uncacheable", uncacheable},
                              {"diskHits", diskHits}, {"diskStores", diskStores},
                              {"bytesInUse", bytesInUse}, {"entries", entries}});
}

// --- entry serialization (tier 2) -------------------------------------------
//
// A line-oriented format with length-prefixed blobs. parseEntry is strict:
// any truncation, header mismatch, or malformed field returns nullopt and
// the caller treats the file as a miss — corruption can cost a recompile,
// never an error or a wrong result.

namespace {

std::optional<CompileOutcome> outcomeFromName(const std::string& name) {
  for (const CompileOutcome o :
       {CompileOutcome::Ok, CompileOutcome::FrontendError, CompileOutcome::Timeout,
        CompileOutcome::ResourceExceeded, CompileOutcome::InternalError}) {
    if (name == compileOutcomeName(o)) return o;
  }
  return std::nullopt;
}

void putBlob(std::ostream& out, const char* tag, const std::string& blob) {
  out << tag << ' ' << blob.size() << '\n' << blob << '\n';
}

std::string serializeEntry(const std::string& key, const CacheEntry& e) {
  std::ostringstream out;
  out << "roccc-cache-entry " << kCacheSchema << '\n';
  out << "key " << key << '\n';
  out << "outcome " << compileOutcomeName(e.outcome) << '\n';
  putBlob(out, "failed-pass", e.failedPass);
  putBlob(out, "vhdl", e.vhdl);
  putBlob(out, "verilog", e.verilog);
  out << "diags " << e.diags.size() << '\n';
  for (const auto& d : e.diags) {
    out << "d " << static_cast<int>(d.severity) << ' ' << d.loc.line << ' ' << d.loc.column << ' '
        << d.message.size() << '\n'
        << d.message << '\n';
  }
  out << "passes " << e.passLog.size() << '\n';
  for (const auto& p : e.passLog) {
    char wall[40];
    std::snprintf(wall, sizeof wall, "%.17g", p.wallMs);
    // Pass names are single tokens (no spaces) by construction.
    out << "p " << static_cast<int>(p.layer) << ' ' << (p.ran ? 1 : 0) << ' ' << wall << ' '
        << p.name << ' ' << p.counters.size() << '\n';
    for (const auto& [k, v] : p.counters) {
      out << "c " << v << ' ' << k.size() << ' ' << k << '\n';
    }
  }
  out << "end\n";
  return out.str();
}

/// Strict cursor over the serialized form.
class EntryReader {
 public:
  explicit EntryReader(const std::string& data) : data_(data) {}

  bool literal(const std::string& expect) {
    if (data_.compare(pos_, expect.size(), expect) != 0) return false;
    pos_ += expect.size();
    return true;
  }
  /// Reads up to the next '\n' (consumed, not returned).
  bool line(std::string& out) {
    const size_t nl = data_.find('\n', pos_);
    if (nl == std::string::npos) return false;
    out = data_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }
  bool number(int64_t& out) {
    size_t i = pos_;
    bool neg = false;
    if (i < data_.size() && data_[i] == '-') {
      neg = true;
      ++i;
    }
    if (i >= data_.size() || data_[i] < '0' || data_[i] > '9') return false;
    int64_t v = 0;
    while (i < data_.size() && data_[i] >= '0' && data_[i] <= '9') {
      v = v * 10 + (data_[i] - '0');
      ++i;
    }
    out = neg ? -v : v;
    pos_ = i;
    return true;
  }
  bool blob(size_t len, std::string& out) {
    if (pos_ + len > data_.size()) return false;
    out = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

std::optional<CacheEntry> parseEntry(const std::string& data, const std::string& expectKey) {
  EntryReader r(data);
  CacheEntry e;
  std::string text;
  int64_t n = 0;

  if (!r.literal(std::string("roccc-cache-entry ") + kCacheSchema + "\n")) return std::nullopt;
  if (!r.literal("key " + expectKey + "\n")) return std::nullopt;
  if (!r.literal("outcome ") || !r.line(text)) return std::nullopt;
  const auto outcome = outcomeFromName(text);
  if (!outcome) return std::nullopt;
  e.outcome = *outcome;

  auto readBlob = [&](const char* tag, std::string& out) {
    return r.literal(std::string(tag) + " ") && r.number(n) && n >= 0 && r.literal("\n") &&
           r.blob(static_cast<size_t>(n), out) && r.literal("\n");
  };
  if (!readBlob("failed-pass", e.failedPass)) return std::nullopt;
  if (!readBlob("vhdl", e.vhdl)) return std::nullopt;
  if (!readBlob("verilog", e.verilog)) return std::nullopt;

  if (!r.literal("diags ") || !r.number(n) || n < 0 || !r.literal("\n")) return std::nullopt;
  for (int64_t i = 0; i < n; ++i) {
    int64_t sev = 0, ln = 0, col = 0, len = 0;
    Diagnostic d;
    if (!r.literal("d ") || !r.number(sev) || !r.literal(" ") || !r.number(ln) ||
        !r.literal(" ") || !r.number(col) || !r.literal(" ") || !r.number(len) || len < 0 ||
        !r.literal("\n") || !r.blob(static_cast<size_t>(len), d.message) || !r.literal("\n")) {
      return std::nullopt;
    }
    if (sev < 0 || sev > static_cast<int>(Severity::Error)) return std::nullopt;
    d.severity = static_cast<Severity>(sev);
    d.loc.line = static_cast<int>(ln);
    d.loc.column = static_cast<int>(col);
    e.diags.push_back(std::move(d));
  }

  if (!r.literal("passes ") || !r.number(n) || n < 0 || !r.literal("\n")) return std::nullopt;
  for (int64_t i = 0; i < n; ++i) {
    PassStatistics p;
    int64_t layer = 0, ran = 0, counters = 0;
    if (!r.literal("p ") || !r.number(layer) || !r.literal(" ") || !r.number(ran) ||
        !r.literal(" ")) {
      return std::nullopt;
    }
    // Rest of the line: "<wallMs %.17g> <name> <counterCount>" — the name is
    // a single token, wallMs may be scientific notation.
    {
      std::string rest;
      if (!r.line(rest)) return std::nullopt;
      std::istringstream fields(rest);
      if (!(fields >> p.wallMs >> p.name >> counters) || counters < 0 || p.name.empty()) {
        return std::nullopt;
      }
    }
    if (layer < 0 || layer > static_cast<int>(PassLayer::Vhdl)) return std::nullopt;
    p.layer = static_cast<PassLayer>(layer);
    p.ran = ran != 0;
    for (int64_t c = 0; c < counters; ++c) {
      int64_t value = 0, keyLen = 0;
      std::string ckey;
      if (!r.literal("c ") || !r.number(value) || !r.literal(" ") || !r.number(keyLen) ||
          keyLen < 0 || !r.literal(" ") || !r.blob(static_cast<size_t>(keyLen), ckey) ||
          !r.literal("\n")) {
        return std::nullopt;
      }
      p.counters.emplace_back(std::move(ckey), value);
    }
    e.passLog.push_back(std::move(p));
  }
  if (!r.literal("end\n")) return std::nullopt;
  return e;
}

} // namespace

// --- tier 2: the disk store --------------------------------------------------

struct CompileCache::DiskStore {
  std::string dir;
  bool usable = false;

  explicit DiskStore(const std::string& directory) : dir(directory) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return; // unusable; every operation silently misses

    const std::string manifest = dir + "/manifest";
    const std::string want = std::string("roccc-compile-cache\nschema ") + kCacheSchema + "\n";
    std::ifstream in(manifest, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      // A manifest from another schema version: leave the store alone —
      // reads miss, writes are suppressed (we will not mix generations).
      usable = buf.str() == want;
      return;
    }
    // Fresh (or manifest-less) directory: claim it for this schema.
    if (!writeAtomic(manifest, want)) return;
    usable = true;
  }

  std::string entryPath(const std::string& key) const { return dir + "/" + key + ".entry"; }

  /// Temp-file + rename so concurrent writers (other threads hold other
  /// keys; other *processes* may hold this one) never expose a torn file.
  bool writeAtomic(const std::string& path, const std::string& bytes) const {
    namespace fs = std::filesystem;
    const std::string tmp = fmt("%0.tmp.%1", path, static_cast<int64_t>(::getpid()));
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return false;
      out << bytes;
      if (!out.good()) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return false;
      }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
      fs::remove(tmp, ec);
      return false;
    }
    return true;
  }

  std::optional<CacheEntry> load(const std::string& key) const {
    if (!usable) return std::nullopt;
    std::ifstream in(entryPath(key), std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    auto entry = parseEntry(buf.str(), key);
    // The digest is not in the entry file, so the format and kCacheSchema
    // stay as they are; it is computed once here, as the entry is promoted
    // into tier 1.
    if (entry) entry->vhdlSha256 = sha256Hex(entry->vhdl);
    return entry;
  }

  bool store(const std::string& key, const CacheEntry& entry) const {
    if (!usable) return false;
    return writeAtomic(entryPath(key), serializeEntry(key, entry));
  }
};

// --- tier 1: sharded LRU -----------------------------------------------------

struct CompileCache::InFlight {
  std::mutex mutex;
  std::condition_variable done;
  bool ready = false;
  /// What waiters receive: the leader's artifact set (CompileResult itself
  /// is move-only — it owns the in-memory IRs — so waiters materialize from
  /// the entry exactly like a tier-1 hit would).
  std::shared_ptr<const CacheEntry> entry;
};

struct CompileCache::Shard {
  using LruList = std::list<std::pair<std::string, std::shared_ptr<const CacheEntry>>>;

  std::mutex mutex;
  LruList lru; ///< front = most recent
  std::unordered_map<std::string, LruList::iterator> map;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight;
  int64_t bytes = 0;
};

CompileCache::CompileCache(CacheConfig config) : config_(std::move(config)) {
  if (config_.shards < 1) config_.shards = 1;
  if (config_.maxBytes < 1) config_.maxBytes = 1;
  shards_ = std::make_unique<Shard[]>(static_cast<size_t>(config_.shards));
  if (!config_.diskDir.empty()) disk_ = std::make_unique<DiskStore>(config_.diskDir);
}

CompileCache::~CompileCache() = default;

bool CompileCache::diskEnabled() const { return disk_ && disk_->usable; }

CompileCache::Shard& CompileCache::shardFor(const std::string& key) {
  // Keys are uniform SHA-256 hex; any slice is a uniform shard picker.
  uint64_t h = 14695981039346656037ull;
  for (const char c : key) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  return shards_[h % static_cast<uint64_t>(config_.shards)];
}

void CompileCache::insertLocked(Shard& shard, const std::string& key,
                                std::shared_ptr<const CacheEntry> entry) {
  const int64_t size = entry->byteSize();
  if (auto it = shard.map.find(key); it != shard.map.end()) {
    // Same content-addressed bytes; keep the resident copy, refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  int64_t evicted = 0;
  int64_t evictedBytes = 0;
  shard.lru.emplace_front(key, std::move(entry));
  shard.map[key] = shard.lru.begin();
  shard.bytes += size;
  // Per-shard slice of the byte budget. The newest entry always stays
  // resident, even alone over budget — an oversized artifact set should
  // still serve the hits it was just stored for.
  const int64_t shardBudget = std::max<int64_t>(1, config_.maxBytes / config_.shards);
  while (shard.bytes > shardBudget && shard.lru.size() > 1) {
    const auto& victim = shard.lru.back();
    const int64_t victimSize = victim.second->byteSize();
    shard.bytes -= victimSize;
    evictedBytes += victimSize;
    shard.map.erase(victim.first);
    shard.lru.pop_back();
    ++evicted;
  }
  {
    std::lock_guard<std::mutex> statsLock(statsMutex_);
    stats_.evictions += evicted;
    stats_.bytesInUse += size - evictedBytes;
    stats_.entries += 1 - evicted;
  }
}

std::shared_ptr<const CacheEntry> CompileCache::lookup(const std::string& key) {
  Shard& shard = shardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;
    }
  }
  if (disk_) {
    if (auto loaded = disk_->load(key)) {
      auto entry = std::make_shared<const CacheEntry>(std::move(*loaded));
      std::lock_guard<std::mutex> lock(shard.mutex);
      insertLocked(shard, key, entry);
      return entry;
    }
  }
  return nullptr;
}

void CompileCache::insert(const std::string& key, CacheEntry entry) {
  auto shared = std::make_shared<const CacheEntry>(std::move(entry));
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  insertLocked(shard, key, std::move(shared));
}

CompileResult CompileCache::getOrCompute(const std::string& key, const CompileOptions& options,
                                         const std::function<CompileResult()>& compute,
                                         bool* wasHit) {
  if (wasHit) *wasHit = false;
  Shard& shard = shardFor(key);
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      const std::shared_ptr<const CacheEntry> entry = it->second->second;
      lock.unlock();
      {
        std::lock_guard<std::mutex> statsLock(statsMutex_);
        ++stats_.hits;
      }
      if (wasHit) *wasHit = true;
      return entry->toResult();
    }
    if (auto it = shard.inflight.find(key); it != shard.inflight.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<InFlight>();
      shard.inflight.emplace(key, flight);
      leader = true;
    }
  }

  if (!leader) {
    // Single-flight: the leader is compiling this exact key right now;
    // block until it publishes and share its artifact set.
    std::shared_ptr<const CacheEntry> entry;
    {
      std::unique_lock<std::mutex> lock(flight->mutex);
      flight->done.wait(lock, [&] { return flight->ready; });
      entry = flight->entry;
    }
    {
      std::lock_guard<std::mutex> statsLock(statsMutex_);
      ++stats_.coalesced;
    }
    if (wasHit) *wasHit = true;
    return entry->toResult();
  }

  // Leader: tier-2 probe, then the real compile.
  auto publish = [&](std::shared_ptr<const CacheEntry> entry) {
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      flight->entry = std::move(entry);
      flight->ready = true;
    }
    flight->done.notify_all();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.inflight.erase(key);
  };

  if (disk_) {
    if (auto loaded = disk_->load(key)) {
      auto entry = std::make_shared<const CacheEntry>(std::move(*loaded));
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        insertLocked(shard, key, entry);
      }
      {
        std::lock_guard<std::mutex> statsLock(statsMutex_);
        ++stats_.hits;
        ++stats_.diskHits;
      }
      if (wasHit) *wasHit = true;
      CompileResult result = entry->toResult();
      publish(std::move(entry));
      return result;
    }
  }

  CompileResult result;
  try {
    result = compute();
  } catch (const std::exception& e) {
    // compute() is the driver's contained job body and should never throw;
    // if it somehow does, waiters must still be released with a structured
    // failure rather than left blocked.
    result.outcome = CompileOutcome::InternalError;
    result.diags.error({}, fmt("internal: cache compute failed: %0", e.what()));
  } catch (...) {
    result.outcome = CompileOutcome::InternalError;
    result.diags.error({}, "internal: cache compute failed: unknown exception");
  }

  // The publication entry is built even for uncacheable outcomes — waiters
  // coalesced onto this flight still need the artifacts; the entry just
  // never enters a tier.
  auto entry = std::make_shared<const CacheEntry>(CacheEntry::fromResult(result));
  const bool cacheable = isCacheable(result, options);
  if (cacheable) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      insertLocked(shard, key, entry);
    }
    if (disk_ && disk_->store(key, *entry)) {
      std::lock_guard<std::mutex> statsLock(statsMutex_);
      ++stats_.diskStores;
    }
  }
  {
    std::lock_guard<std::mutex> statsLock(statsMutex_);
    ++stats_.misses;
    if (!cacheable) ++stats_.uncacheable;
  }
  publish(std::move(entry));
  return result;
}

CacheStats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return stats_;
}

} // namespace roccc
