#include "roccc/cache.hpp"

#include <algorithm>
#include <climits>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include <unistd.h>

#include "roccc/options.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace roccc {

// --- key derivation ----------------------------------------------------------

std::string normalizeSourceForKey(std::string_view source) {
  // The runs between '\r' bytes are copied in bulk; each '\r' or "\r\n"
  // becomes one '\n'.
  std::string out;
  out.reserve(source.size());
  size_t run = 0;
  for (size_t cr = source.find('\r'); cr != std::string_view::npos;
       cr = source.find('\r', run)) {
    out.append(source, run, cr - run);
    out += '\n';
    run = cr + 1;
    if (run < source.size() && source[run] == '\n') ++run;
  }
  out.append(source, run);
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

std::string computeCacheKey(std::string_view source, const CompileOptions& options,
                            std::string_view fingerprint) {
  const std::string normalized = normalizeSourceForKey(source);
  const std::string canonical = canonicalizeOptions(options);
  Sha256 h;
  h.update(fingerprint);
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

// --- tier-2 entry documents -------------------------------------------------
//
// One compact JSON document per entry (docs/CACHING.md shows the layout).
// entryFromJson is strict: a wrong key, a missing or mistyped field, or an
// out-of-range enum returns nullopt and the caller treats the file as a
// miss, so damage can cost a recompile, never an error or a wrong result.

namespace {

std::optional<CompileOutcome> outcomeFromName(const std::string& name) {
  for (const CompileOutcome o :
       {CompileOutcome::Ok, CompileOutcome::FrontendError, CompileOutcome::Timeout,
        CompileOutcome::ResourceExceeded, CompileOutcome::InternalError}) {
    if (name == compileOutcomeName(o)) return o;
  }
  return std::nullopt;
}

json::Value entryToJson(const std::string& key, const CacheEntry& e) {
  using json::Value;
  Value diags = Value::array();
  for (const Diagnostic& d : e.diags) {
    diags.push(Value::object({{"severity", static_cast<int>(d.severity)}, {"line", d.loc.line},
                              {"column", d.loc.column}, {"message", d.message}}));
  }
  Value passes = Value::array();
  for (const PassStatistics& p : e.passLog) {
    Value counters = Value::array();
    for (const auto& [name, value] : p.counters) counters.push(Value::array({name, value}));
    passes.push(Value::object({{"name", p.name}, {"layer", static_cast<int>(p.layer)},
                               {"ran", p.ran}, {"wallMs", p.wallMs},
                               {"counters", std::move(counters)}}));
  }
  return Value::object({{"key", key}, {"outcome", compileOutcomeName(e.outcome)},
                        {"failedPass", e.failedPass}, {"vhdl", e.vhdl}, {"verilog", e.verilog},
                        {"diags", std::move(diags)}, {"passes", std::move(passes)}});
}

/// `doc`'s member `name` when it has kind `kind`, else null.
const json::Value* member(const json::Value& doc, std::string_view name, json::Value::Kind kind) {
  const json::Value* v = doc.find(name);
  return v && v->kind() == kind ? v : nullptr;
}

bool readString(const json::Value& doc, std::string_view name, std::string& out) {
  const json::Value* v = member(doc, name, json::Value::Kind::String);
  if (v) out = v->asString();
  return v != nullptr;
}

/// An integral member within [lo, hi].
bool readInt(const json::Value& doc, std::string_view name, int64_t lo, int64_t hi, int64_t& out) {
  const json::Value* v = member(doc, name, json::Value::Kind::Number);
  if (!v || !v->isIntegral() || v->asInt() < lo || v->asInt() > hi) return false;
  out = v->asInt();
  return true;
}

std::optional<CacheEntry> entryFromJson(const json::Value& doc, const std::string& expectKey) {
  using Kind = json::Value::Kind;
  CacheEntry e;
  std::string key, outcome;
  const json::Value* diags = member(doc, "diags", Kind::Array);
  const json::Value* passes = member(doc, "passes", Kind::Array);
  if (!readString(doc, "key", key) || key != expectKey || !readString(doc, "outcome", outcome) ||
      !readString(doc, "failedPass", e.failedPass) || !readString(doc, "vhdl", e.vhdl) ||
      !readString(doc, "verilog", e.verilog) || !diags || !passes) {
    return std::nullopt;
  }
  const auto o = outcomeFromName(outcome);
  if (!o) return std::nullopt;
  e.outcome = *o;

  for (const json::Value& d : diags->items()) {
    Diagnostic diag;
    int64_t severity = 0, line = 0, column = 0;
    if (!readInt(d, "severity", 0, static_cast<int>(Severity::Error), severity) ||
        !readInt(d, "line", INT_MIN, INT_MAX, line) ||
        !readInt(d, "column", INT_MIN, INT_MAX, column) ||
        !readString(d, "message", diag.message)) {
      return std::nullopt;
    }
    diag.severity = static_cast<Severity>(severity);
    diag.loc.line = static_cast<int>(line);
    diag.loc.column = static_cast<int>(column);
    e.diags.push_back(std::move(diag));
  }

  for (const json::Value& p : passes->items()) {
    PassStatistics st;
    int64_t layer = 0;
    const json::Value* ran = member(p, "ran", Kind::Bool);
    const json::Value* wallMs = member(p, "wallMs", Kind::Number);
    const json::Value* counters = member(p, "counters", Kind::Array);
    if (!readString(p, "name", st.name) || st.name.empty() ||
        !readInt(p, "layer", 0, static_cast<int>(PassLayer::Vhdl), layer) || !ran || !wallMs ||
        !counters) {
      return std::nullopt;
    }
    st.layer = static_cast<PassLayer>(layer);
    st.ran = ran->asBool();
    st.wallMs = wallMs->asDouble();
    for (const json::Value& c : counters->items()) {
      // [name, value]
      if (!c.isArray() || c.items().size() != 2 || !c.items()[0].isString() ||
          !c.items()[1].isNumber() || !c.items()[1].isIntegral()) {
        return std::nullopt;
      }
      st.counters.emplace_back(c.items()[0].asString(), c.items()[1].asInt());
    }
    e.passLog.push_back(std::move(st));
  }
  return e;
}

} // namespace

// --- tier 2: the disk store --------------------------------------------------

namespace {

bool isFingerprintName(const std::string& name) {
  return name.size() == 64 &&
         std::all_of(name.begin(), name.end(), [](char c) {
           return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
         });
}

/// Best-effort removal of every other compiler's generation under `root`:
/// sibling fingerprint directories, and the flat layout older stores wrote
/// (root-level `*.entry`, `*.entry.tmp.*` and `manifest`). Anything else is
/// left alone, and a failed removal is ignored.
void dropOtherGenerations(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::directory_iterator it(root, ec), end; !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    std::error_code ignored;
    if (it->is_directory(ignored)) {
      if (isFingerprintName(name) && name != kCompilerFingerprint) fs::remove_all(it->path(), ignored);
    } else if (name == "manifest" || endsWith(name, ".entry") ||
               name.find(".entry.tmp.") != std::string::npos) {
      fs::remove(it->path(), ignored);
    }
  }
}

} // namespace

struct CompileCache::DiskStore {
  std::string dir; ///< <diskDir>/<kCompilerFingerprint>
  bool usable = false;

  explicit DiskStore(const std::string& root) : dir(root + "/" + kCompilerFingerprint) {
    // Unusable when the directory cannot be made; every operation then
    // silently misses.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    usable = std::filesystem::is_directory(dir, ec);
    if (usable) dropOtherGenerations(root);
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
    json::Value doc;
    std::string error;
    if (!json::parse(buf.str(), doc, error)) return std::nullopt;
    auto entry = entryFromJson(doc, key);
    // The digest is not in the entry document; it is computed once here,
    // as the entry is promoted into tier 1.
    if (entry) entry->vhdlSha256 = sha256Hex(entry->vhdl);
    return entry;
  }

  bool store(const std::string& key, const CacheEntry& entry) const {
    if (!usable) return false;
    return writeAtomic(entryPath(key), entryToJson(key, entry).dump());
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

std::shared_ptr<const CacheEntry> CompileCache::hitLocked(Shard& shard, const std::string& key) {
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  std::lock_guard<std::mutex> statsLock(statsMutex_);
  ++stats_.hits;
  return it->second->second;
}

std::shared_ptr<const CacheEntry> CompileCache::probe(const std::string& key) {
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return hitLocked(shard, key);
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
    if (const auto entry = hitLocked(shard, key)) {
      lock.unlock();
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
