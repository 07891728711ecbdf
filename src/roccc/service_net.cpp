#include "roccc/service_net.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <list>
#include <thread>

#include "roccc/options.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"
#include "support/timer.hpp"

namespace roccc {

const char* const kServiceProtocol = "roccc-ccd-v1";

// ---------------------------------------------------------------------------
// ServiceMetrics

void ServiceMetrics::recordRequest(const std::string& type) {
  requestsTotal_.fetch_add(1, std::memory_order_relaxed);
  if (type == "compile") requestsCompile_.fetch_add(1, std::memory_order_relaxed);
  else if (type == "batch") requestsBatch_.fetch_add(1, std::memory_order_relaxed);
  else if (type == "status") requestsStatus_.fetch_add(1, std::memory_order_relaxed);
  else if (type == "metrics") requestsMetrics_.fetch_add(1, std::memory_order_relaxed);
  else if (type == "drain") requestsDrain_.fetch_add(1, std::memory_order_relaxed);
  else if (type == "reload") requestsReload_.fetch_add(1, std::memory_order_relaxed);
  else if (type == "ping") requestsPing_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::recordProtocolError(const char*) {
  requestsTotal_.fetch_add(1, std::memory_order_relaxed);
  protocolErrors_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::recordRejection(const char* code) {
  if (std::strcmp(code, servicecode::kQueueFull) == 0) {
    rejectedQueueFull_.fetch_add(1, std::memory_order_relaxed);
  } else if (std::strcmp(code, servicecode::kDraining) == 0) {
    rejectedDraining_.fetch_add(1, std::memory_order_relaxed);
  } else if (std::strcmp(code, servicecode::kQuotaExceeded) == 0) {
    rejectedQuota_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServiceMetrics::recordJobAdmitted() { jobsAdmitted_.fetch_add(1, std::memory_order_relaxed); }

void ServiceMetrics::recordJobCompleted(CompileOutcome outcome, bool cacheHit, double serviceMs) {
  jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
  outcomeCounts_[static_cast<int>(outcome)].fetch_add(1, std::memory_order_relaxed);
  (cacheHit ? cacheHits_ : cacheMisses_).fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(histMutex_);
  int bucket = 0;
  while (bucket < kBuckets - 1 && serviceMs > kBucketUpperMs[bucket]) ++bucket;
  ++histCounts_[bucket];
  serviceMsSum_ += serviceMs;
  serviceMsMax_ = std::max(serviceMsMax_, serviceMs);
}

void ServiceMetrics::recordConnectionOpened() {
  connectionsAccepted_.fetch_add(1, std::memory_order_relaxed);
  connectionsOpen_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::recordConnectionClosed() {
  connectionsOpen_.fetch_sub(1, std::memory_order_relaxed);
}

void ServiceMetrics::recordBytes(int64_t in, int64_t out) {
  if (in) bytesIn_.fetch_add(in, std::memory_order_relaxed);
  if (out) bytesOut_.fetch_add(out, std::memory_order_relaxed);
}

double ServiceMetrics::percentileMs(double q) const {
  int64_t total = 0;
  for (const int64_t c : histCounts_) total += c;
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += histCounts_[b];
    if (static_cast<double>(seen) >= target) {
      // Report the bucket's upper bound; the last (overflow) bucket
      // reports the observed maximum instead.
      return b < kBuckets - 1 ? kBucketUpperMs[b] : serviceMsMax_;
    }
  }
  return serviceMsMax_;
}

json::Value ServiceMetrics::toJson(double uptimeSec) const {
  using json::Value;
  Value m = Value::object();
  m.set("uptimeSec", Value::number(uptimeSec));
  const int64_t completed = jobsCompleted_.load(std::memory_order_relaxed);
  m.set("jobsPerSec", Value::number(uptimeSec > 0 ? static_cast<double>(completed) / uptimeSec : 0));
  m.set("queueDepth", Value::number(static_cast<int64_t>(queueDepth_.load(std::memory_order_relaxed))));

  Value jobs = Value::object();
  jobs.set("admitted", Value::number(jobsAdmitted_.load(std::memory_order_relaxed)));
  jobs.set("completed", Value::number(completed));
  m.set("jobs", std::move(jobs));

  Value outcomes = Value::object();
  static constexpr CompileOutcome kOrder[] = {
      CompileOutcome::Ok, CompileOutcome::FrontendError, CompileOutcome::Timeout,
      CompileOutcome::ResourceExceeded, CompileOutcome::InternalError};
  for (const CompileOutcome o : kOrder) {
    outcomes.set(compileOutcomeName(o),
                 Value::number(outcomeCounts_[static_cast<int>(o)].load(std::memory_order_relaxed)));
  }
  m.set("outcomes", std::move(outcomes));

  Value rejected = Value::object();
  rejected.set(servicecode::kQueueFull,
               Value::number(rejectedQueueFull_.load(std::memory_order_relaxed)));
  rejected.set(servicecode::kDraining,
               Value::number(rejectedDraining_.load(std::memory_order_relaxed)));
  rejected.set(servicecode::kQuotaExceeded,
               Value::number(rejectedQuota_.load(std::memory_order_relaxed)));
  m.set("rejected", std::move(rejected));

  const int64_t hits = cacheHits_.load(std::memory_order_relaxed);
  const int64_t misses = cacheMisses_.load(std::memory_order_relaxed);
  Value cache = Value::object();
  cache.set("hits", Value::number(hits));
  cache.set("misses", Value::number(misses));
  cache.set("hitRate",
            Value::number(hits + misses > 0
                              ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                              : 0));
  m.set("cache", std::move(cache));

  {
    std::lock_guard<std::mutex> lock(histMutex_);
    int64_t count = 0;
    for (const int64_t c : histCounts_) count += c;
    Value svc = Value::object();
    svc.set("count", Value::number(count));
    svc.set("meanMs", Value::number(count > 0 ? serviceMsSum_ / static_cast<double>(count) : 0));
    svc.set("p50Ms", Value::number(percentileMs(0.50)));
    svc.set("p95Ms", Value::number(percentileMs(0.95)));
    svc.set("maxMs", Value::number(serviceMsMax_));
    m.set("serviceMs", std::move(svc));
  }

  Value reqs = Value::object();
  reqs.set("total", Value::number(requestsTotal_.load(std::memory_order_relaxed)));
  reqs.set("compile", Value::number(requestsCompile_.load(std::memory_order_relaxed)));
  reqs.set("batch", Value::number(requestsBatch_.load(std::memory_order_relaxed)));
  reqs.set("status", Value::number(requestsStatus_.load(std::memory_order_relaxed)));
  reqs.set("metrics", Value::number(requestsMetrics_.load(std::memory_order_relaxed)));
  reqs.set("drain", Value::number(requestsDrain_.load(std::memory_order_relaxed)));
  reqs.set("reload", Value::number(requestsReload_.load(std::memory_order_relaxed)));
  reqs.set("ping", Value::number(requestsPing_.load(std::memory_order_relaxed)));
  reqs.set("protocolErrors", Value::number(protocolErrors_.load(std::memory_order_relaxed)));
  m.set("requests", std::move(reqs));

  Value conns = Value::object();
  conns.set("accepted", Value::number(connectionsAccepted_.load(std::memory_order_relaxed)));
  conns.set("open", Value::number(connectionsOpen_.load(std::memory_order_relaxed)));
  m.set("connections", std::move(conns));

  Value bytes = Value::object();
  bytes.set("in", Value::number(bytesIn_.load(std::memory_order_relaxed)));
  bytes.set("out", Value::number(bytesOut_.load(std::memory_order_relaxed)));
  m.set("bytes", std::move(bytes));
  return m;
}

// ---------------------------------------------------------------------------
// Protocol options

namespace {

/// A client budget value clamped to the server ceiling: no ceiling passes
/// the request through, "unlimited" (0) requests collapse to the ceiling,
/// and anything else takes the tighter of the two. Negative deadlines
/// (already expired — the deterministic-timeout convention) stay.
int64_t clampToCeiling(int64_t requested, int64_t ceiling) {
  if (ceiling == 0) return requested;
  if (requested == 0) return ceiling;
  return std::min(requested, ceiling);
}

} // namespace

bool compileOptionsFromJson(const json::Value& options, const CompileOptions& base,
                            const BudgetLimits& ceiling, CompileOptions& out, std::string& error) {
  out = base;
  if (!options.isObject()) {
    error = "'options' must be an object";
    return false;
  }
  for (const auto& [key, v] : options.members()) {
    const OptionRow* row = findOptionByKey(key);
    if (!row) {
      error = fmt("unknown option '%0'", key);
      return false;
    }
    if (!setOptionFromJson(*row, v, out, error)) return false;
  }
  // Quotas layered on CompileBudget: the server's ceilings bound every
  // client-requested budget (tighter requests pass through).
  out.budget.timeoutMs = clampToCeiling(out.budget.timeoutMs, ceiling.timeoutMs);
  out.budget.maxIrNodes = clampToCeiling(out.budget.maxIrNodes, ceiling.maxIrNodes);
  out.budget.maxUnrollProduct = clampToCeiling(out.budget.maxUnrollProduct, ceiling.maxUnrollProduct);
  out.budget.maxDepth =
      static_cast<int>(clampToCeiling(out.budget.maxDepth, ceiling.maxDepth));
  return true;
}

json::Value makeCompileRequest(const std::string& name, const std::string& source,
                               json::Value options) {
  json::Value req = json::Value::object();
  req.set("proto", json::Value::string(kServiceProtocol));
  req.set("type", json::Value::string("compile"));
  req.set("name", json::Value::string(name));
  req.set("source", json::Value::string(source));
  if (options.isObject() && !options.members().empty()) req.set("options", std::move(options));
  return req;
}

// ---------------------------------------------------------------------------
// Socket plumbing shared by daemon and client

namespace {

/// Writes all of `data` to `fd` (MSG_NOSIGNAL: a dead peer is an error
/// return, not a SIGPIPE). False on any send failure.
bool sendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool bindUnixSocket(const std::string& path, int& fd, std::string& error) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    error = fmt("socket path '%0' is empty or too long for AF_UNIX", path);
    return false;
  }
  fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = fmt("socket(): %0", std::strerror(errno));
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // A stale socket file from a dead daemon would fail the bind; only
  // remove it when nothing is listening behind it.
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    ::close(fd);
    fd = -1;
    error = fmt("'%0' already has a listening daemon", path);
    return false;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = fmt("bind('%0'): %1", path, std::strerror(errno));
    ::close(fd);
    fd = -1;
    return false;
  }
  if (::listen(fd, 512) != 0) {
    error = fmt("listen('%0'): %1", path, std::strerror(errno));
    ::close(fd);
    ::unlink(path.c_str());
    fd = -1;
    return false;
  }
  return true;
}

} // namespace

LineReader::Status LineReader::next(std::string& line) {
  while (true) {
    const size_t nl = buf_.find('\n', scanned_);
    if (nl != std::string::npos) {
      // The cap applies to complete frames too, not just ones still
      // accumulating — a burst can deliver the whole oversize line in
      // one recv.
      if (static_cast<int64_t>(nl) > maxLineBytes_) return Status::Oversized;
      // Copied out, not swapped, so the buffer keeps its capacity. A swap
      // left it empty: every large frame then regrew it by doubling, and
      // the blocks freed on the way made large responses' latency hinge on
      // when the allocator returned them to the system.
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      scanned_ = 0;
      return Status::Line;
    }
    scanned_ = buf_.size();
    if (static_cast<int64_t>(buf_.size()) > maxLineBytes_) return Status::Oversized;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) return Status::Eof;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Error;
    }
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// ServiceDaemon

struct ServiceDaemon::Impl {
  explicit Impl(ServiceConfig config) : cfg(std::move(config)) {}

  /// How long accept() waits after running out of descriptors or buffers.
  static constexpr int kAcceptBackoffMs = 50;

  struct Connection {
    int fd = -1;
    int inFlight = 0; ///< jobs in the admission window; guarded by admitMutex
  };

  ServiceConfig cfg;
  int listenFd = -1;
  int wakeRead = -1, wakeWrite = -1;
  std::thread acceptThread;
  bool started = false;

  // Lifecycle. `draining` stops job admission (resumable when pause-only);
  // `stopRequested` commits the daemon to exit once the window empties;
  // `hardStop` (tests / fatal paths) skips the wait.
  std::atomic<bool> draining{false};
  std::atomic<bool> stopRequested{false};
  std::atomic<bool> hardStop{false};
  std::atomic<bool> stopped{false};

  // Admission window.
  std::mutex admitMutex;
  std::condition_variable windowEmpty;
  int inFlightTotal = 0;

  // Connection registry: detached handler threads, counted so shutdown
  // can wait for the last one; fds kept to unblock their reads.
  std::mutex connMutex;
  std::condition_variable connGone;
  std::list<std::shared_ptr<Connection>> connections;
  int activeHandlers = 0;

  std::unique_ptr<ThreadPool> pool;
  std::mutex cacheMutex;
  std::shared_ptr<CompileCache> cache;

  ServiceMetrics metrics;
  WallTimer uptime;
  /// Why the accept loop quit unasked (a poll/accept failure); empty after
  /// a requested stop. Written by the accept thread before it exits.
  std::string failure;

  void log(const std::string& msg) {
    if (!cfg.quiet) std::fprintf(stderr, "roccc-ccd: %s\n", msg.c_str());
  }

  std::shared_ptr<CompileCache> currentCache() {
    std::lock_guard<std::mutex> lock(cacheMutex);
    return cache;
  }

  void wake() {
    if (wakeWrite >= 0) {
      const char b = 'w';
      [[maybe_unused]] const ssize_t n = ::write(wakeWrite, &b, 1);
    }
  }

  // --- admission -----------------------------------------------------------

  /// nullptr = admitted; otherwise the typed rejection code. admitMutex held.
  const char* tryAdmitLocked(Connection& conn) {
    if (draining.load(std::memory_order_relaxed)) return servicecode::kDraining;
    if (inFlightTotal >= cfg.maxQueue) return servicecode::kQueueFull;
    if (conn.inFlight >= cfg.maxClientJobs) return servicecode::kQuotaExceeded;
    ++inFlightTotal;
    ++conn.inFlight;
    metrics.setQueueDepth(inFlightTotal);
    metrics.recordJobAdmitted();
    return nullptr;
  }

  void release(Connection& conn) {
    std::lock_guard<std::mutex> lock(admitMutex);
    --inFlightTotal;
    --conn.inFlight;
    metrics.setQueueDepth(inFlightTotal);
    if (inFlightTotal == 0) windowEmpty.notify_all();
  }

  /// One admitted job's way through the shared cache: the cache attached
  /// when the job was probed (null when none is) and the job's key,
  /// computed once, on the connection thread.
  struct CacheRoute {
    std::shared_ptr<CompileCache> cache;
    std::string key;
  };

  /// Probes the memory tier for an admitted job on the connection thread.
  /// A hit is released, recorded and returned in `result`: it never
  /// reaches the pool. On a miss (or with no cache) `route` is what the
  /// pool needs and false is returned.
  bool serveHit(Connection& conn, const CompileJob& job, CacheRoute& route, CompileResult& result,
                double& serviceMs) {
    WallTimer timer;
    route.cache = currentCache();
    if (!route.cache) return false;
    route.key = computeCacheKey(job.source, job.options);
    const auto entry = route.cache->probe(route.key);
    if (!entry) return false;
    result = entry->toResult();
    release(conn);
    serviceMs = timer.elapsedMs();
    metrics.recordJobCompleted(result.outcome, /*cacheHit*/ true, serviceMs);
    return true;
  }

  /// A job that missed the memory tier, on a pool worker: through the
  /// cache when one is attached (tier-2 load, single-flight, compile), so
  /// disk I/O and compiles stay off connection threads. A miss hashes the
  /// VHDL next to the compile, so the entry carries the digest and every
  /// later hit or coalesced waiter replays it instead of re-hashing.
  CompileResult compileThroughCache(const CompileJob& job, const CacheRoute& route, bool& hit) {
    if (!route.cache) return runContainedJob(job);
    return route.cache->getOrCompute(
        route.key, job.options,
        [&] {
          CompileResult r = runContainedJob(job);
          if (r.ok) r.vhdlSha256 = sha256Hex(r.vhdl);
          return r;
        },
        &hit);
  }

  /// Runs one admitted job — a memory hit on this thread, anything else on
  /// the worker pool — and records its completion. Returns the result and
  /// whether it was served from the cache.
  CompileResult runAdmittedJob(const std::shared_ptr<Connection>& conn, const CompileJob& job,
                               bool& wasHit, double& serviceMs) {
    WallTimer timer;
    CacheRoute route;
    CompileResult result;
    wasHit = serveHit(*conn, job, route, result, serviceMs);
    if (wasHit) return result;
    pool->submit([&] {
          result = compileThroughCache(job, route, wasHit);
          release(*conn);
        })
        .get();
    serviceMs = timer.elapsedMs();
    metrics.recordJobCompleted(result.outcome, wasHit, serviceMs);
    return result;
  }

  // --- responses -----------------------------------------------------------

  json::Value envelope(const char* type, const json::Value* id) {
    json::Value r = json::Value::object();
    r.set("proto", json::Value::string(kServiceProtocol));
    if (id && !id->isNull()) r.set("id", *id);
    r.set("type", json::Value::string(type));
    return r;
  }

  json::Value errorResponse(const json::Value* id, const char* code, const std::string& message) {
    json::Value r = envelope("error", id);
    json::Value e = json::Value::object();
    e.set("code", json::Value::string(code));
    e.set("message", json::Value::string(message));
    r.set("error", std::move(e));
    return r;
  }

  bool writeResponse(const Connection& conn, const json::Value& response) {
    std::string line = response.dump();
    line += '\n';
    metrics.recordBytes(0, static_cast<int64_t>(line.size()));
    return sendAll(conn.fd, line);
  }

  /// The per-job result fields shared by `result` responses and
  /// `batch-result` rows. `status` is the outcome name for compiled jobs
  /// (the service edge extends the same taxonomy with rejection codes).
  /// The artifact texts are moved out of `r`; `verilog` is there exactly
  /// when the job asked for it. `sha256` is the digest the result carries;
  /// only a result without one (a daemon with no cache attached) is hashed
  /// here.
  void fillResultFields(json::Value& row, const std::string& name, CompileResult&& r,
                        bool cached, double serviceMs) {
    row.set("name", json::Value::string(name));
    row.set("status", json::Value::string(compileOutcomeName(r.outcome)));
    row.set("cached", json::Value::boolean(cached));
    row.set("serviceMs", json::Value::number(serviceMs));
    if (!r.failedPass.empty()) row.set("failedPass", json::Value::string(r.failedPass));
    if (r.ok) {
      std::string digest = r.vhdlSha256.empty() ? sha256Hex(r.vhdl) : std::move(r.vhdlSha256);
      row.set("vhdl", json::Value::string(std::move(r.vhdl)));
      row.set("sha256", json::Value::string(std::move(digest)));
      if (!r.verilog.empty()) row.set("verilog", json::Value::string(std::move(r.verilog)));
    }
    json::Value diags = json::Value::array();
    for (const auto& d : r.diags.all()) diags.push(json::Value::string(d.str()));
    row.set("diags", std::move(diags));
  }

  // --- request handlers ----------------------------------------------------

  /// Parses one job spec {name?, source, options?}. False → bad-request.
  bool parseJobSpec(const json::Value& spec, CompileJob& job, std::string& error) {
    if (!spec.isObject()) {
      error = "job spec must be an object";
      return false;
    }
    const json::Value* name = spec.find("name");
    if (name) {
      if (!name->isString()) { error = "'name' must be a string"; return false; }
      job.name = name->asString();
    } else {
      job.name = "<anonymous>";
    }
    const json::Value* source = spec.find("source");
    if (!source || !source->isString()) {
      error = "'source' (string) is required";
      return false;
    }
    job.source = source->asString();
    const json::Value* options = spec.find("options");
    if (!options) {
      job.options = cfg.baseOptions;
      return true;
    }
    return compileOptionsFromJson(*options, cfg.baseOptions, cfg.budgetCeiling, job.options,
                                  error);
  }

  void handleCompile(const std::shared_ptr<Connection>& conn, const json::Value& req,
                     const json::Value* id) {
    CompileJob job;
    std::string error;
    if (!parseJobSpec(req, job, error)) {
      metrics.recordProtocolError(servicecode::kBadRequest);
      writeResponse(*conn, errorResponse(id, servicecode::kBadRequest, error));
      return;
    }
    const char* reject = nullptr;
    {
      std::lock_guard<std::mutex> lock(admitMutex);
      reject = tryAdmitLocked(*conn);
    }
    if (reject) {
      metrics.recordRejection(reject);
      writeResponse(*conn, errorResponse(id, reject,
                                         fmt("job '%0' rejected: %1", job.name, reject)));
      return;
    }
    bool cached = false;
    double serviceMs = 0;
    CompileResult result = runAdmittedJob(conn, job, cached, serviceMs);
    json::Value resp = envelope("result", id);
    fillResultFields(resp, job.name, std::move(result), cached, serviceMs);
    writeResponse(*conn, resp);
  }

  void handleBatch(const std::shared_ptr<Connection>& conn, const json::Value& req,
                   const json::Value* id) {
    const json::Value* jobsField = req.find("jobs");
    if (!jobsField || !jobsField->isArray()) {
      metrics.recordProtocolError(servicecode::kBadRequest);
      writeResponse(*conn, errorResponse(id, servicecode::kBadRequest,
                                         "'jobs' (array) is required"));
      return;
    }
    const size_t n = jobsField->items().size();
    std::vector<CompileJob> jobs(n);
    for (size_t i = 0; i < n; ++i) {
      std::string error;
      if (!parseJobSpec(jobsField->items()[i], jobs[i], error)) {
        metrics.recordProtocolError(servicecode::kBadRequest);
        writeResponse(*conn, errorResponse(id, servicecode::kBadRequest,
                                           fmt("jobs[%0]: %1", i, error)));
        return;
      }
    }
    // Atomic up-front admission: every row's verdict is decided before any
    // job runs, so which rows of an oversized batch get rejected is
    // deterministic (the tail), not a race against completions.
    std::vector<const char*> reject(n, nullptr);
    {
      std::lock_guard<std::mutex> lock(admitMutex);
      for (size_t i = 0; i < n; ++i) reject[i] = tryAdmitLocked(*conn);
    }
    struct Slot {
      CompileResult result;
      bool cached = false;
      double serviceMs = 0;
    };
    std::vector<Slot> slots(n);
    std::vector<CacheRoute> routes(n);
    // A memory hit is answered here on the connection thread; only the
    // misses fan out through the pool. Rejected rows cost nothing.
    std::vector<std::pair<size_t, std::future<void>>> pending;
    WallTimer timer;
    for (size_t i = 0; i < n; ++i) {
      if (reject[i]) {
        metrics.recordRejection(reject[i]);
        continue;
      }
      // A row is timed from its submission, as a compile request is: its
      // serviceMs covers the queue wait behind the batch's other rows.
      const WallTimer rowTimer;
      if (serveHit(*conn, jobs[i], routes[i], slots[i].result, slots[i].serviceMs)) {
        slots[i].cached = true;
        continue;
      }
      pending.emplace_back(i, pool->submit([this, conn, &jobs, &routes, &slots, i, rowTimer] {
        auto& slot = slots[i];
        slot.result = compileThroughCache(jobs[i], routes[i], slot.cached);
        slot.serviceMs = rowTimer.elapsedMs();
        release(*conn);
      }));
    }
    for (auto& [i, fut] : pending) {
      fut.get();
      metrics.recordJobCompleted(slots[i].result.outcome, slots[i].cached, slots[i].serviceMs);
    }
    json::Value resp = envelope("batch-result", id);
    resp.set("jobs", json::Value::number(static_cast<int64_t>(n)));
    int ok = 0, rejectedCount = 0;
    json::Value rows = json::Value::array();
    for (size_t i = 0; i < n; ++i) {
      json::Value row = json::Value::object();
      if (reject[i]) {
        ++rejectedCount;
        row.set("name", json::Value::string(jobs[i].name));
        row.set("status", json::Value::string(reject[i]));
      } else {
        if (slots[i].result.ok) ++ok;
        fillResultFields(row, jobs[i].name, std::move(slots[i].result), slots[i].cached,
                         slots[i].serviceMs);
      }
      rows.push(std::move(row));
    }
    resp.set("ok", json::Value::number(static_cast<int64_t>(ok)));
    resp.set("rejected", json::Value::number(static_cast<int64_t>(rejectedCount)));
    resp.set("wallMs", json::Value::number(timer.elapsedMs()));
    resp.set("results", std::move(rows));
    writeResponse(*conn, resp);
  }

  void handleStatus(const Connection& conn, const json::Value* id) {
    json::Value resp = envelope("status", id);
    resp.set("state", json::Value::string(stopped.load()     ? "stopped"
                                          : draining.load()  ? "draining"
                                                             : "serving"));
    resp.set("uptimeSec", json::Value::number(uptime.elapsedMs() / 1000.0));
    resp.set("workers", json::Value::number(static_cast<int64_t>(pool->workerCount())));
    {
      std::lock_guard<std::mutex> lock(admitMutex);
      resp.set("queueDepth", json::Value::number(static_cast<int64_t>(inFlightTotal)));
    }
    resp.set("maxQueue", json::Value::number(static_cast<int64_t>(cfg.maxQueue)));
    resp.set("maxClientJobs", json::Value::number(static_cast<int64_t>(cfg.maxClientJobs)));
    resp.set("connections", json::Value::number(metrics.connectionsOpen()));
    json::Value cacheInfo = json::Value::object();
    const auto c = currentCache();
    cacheInfo.set("enabled", json::Value::boolean(c != nullptr));
    if (c) {
      cacheInfo.set("dir", json::Value::string(c->config().diskDir));
      cacheInfo.set("diskEnabled", json::Value::boolean(c->diskEnabled()));
      const CacheStats stats = c->stats();
      cacheInfo.set("entries", json::Value::number(stats.entries));
      cacheInfo.set("bytesInUse", json::Value::number(stats.bytesInUse));
    }
    resp.set("cache", std::move(cacheInfo));
    writeResponse(conn, resp);
  }

  void handleMetrics(const Connection& conn, const json::Value* id) {
    json::Value resp = envelope("metrics", id);
    const json::Value m = metrics.toJson(uptime.elapsedMs() / 1000.0);
    for (const auto& [key, value] : m.members()) resp.set(key, value);
    writeResponse(conn, resp);
  }

  /// drain modes: "stop" (default) rejects new jobs, waits for the window
  /// to empty, replies, then stops the daemon; "pause" holds it in
  /// Draining for maintenance; "resume" returns a paused daemon to
  /// Serving. Returns false when the connection should close (stop mode).
  bool handleDrain(const Connection& conn, const json::Value& req, const json::Value* id) {
    std::string mode = "stop";
    if (const json::Value* m = req.find("mode")) {
      if (!m->isString() || (m->asString() != "stop" && m->asString() != "pause" &&
                             m->asString() != "resume")) {
        metrics.recordProtocolError(servicecode::kBadRequest);
        writeResponse(conn, errorResponse(id, servicecode::kBadRequest,
                                          "'mode' must be \"stop\", \"pause\" or \"resume\""));
        return true;
      }
      mode = m->asString();
    }
    if (mode == "resume") {
      if (stopRequested.load()) {
        metrics.recordProtocolError(servicecode::kBadRequest);
        writeResponse(conn, errorResponse(id, servicecode::kBadRequest,
                                          "daemon is stopping; cannot resume"));
        return true;
      }
      draining.store(false);
      log("resumed");
      writeResponse(conn, envelope("resumed", id));
      return true;
    }
    draining.store(true);
    if (mode == "stop") stopRequested.store(true);
    log(mode == "stop" ? "draining (stop)" : "draining (pause)");
    int64_t completed;
    {
      std::unique_lock<std::mutex> lock(admitMutex);
      windowEmpty.wait(lock, [this] { return inFlightTotal == 0 || hardStop.load(); });
      completed = metrics.jobsCompleted();
    }
    json::Value resp = envelope("drained", id);
    resp.set("stopped", json::Value::boolean(mode == "stop"));
    resp.set("jobsCompleted", json::Value::number(completed));
    writeResponse(conn, resp);
    if (mode == "stop") {
      wake(); // accept loop: close the listener, reap connections, exit
      return false;
    }
    return true;
  }

  void handleReload(const Connection& conn, const json::Value* id) {
    json::Value resp = envelope("reloaded", id);
    if (!cfg.cacheEnabled) {
      resp.set("cache", json::Value::boolean(false));
      writeResponse(conn, resp);
      return;
    }
    // A fresh cache over the same config: drops the memory tier and
    // re-checks the disk directory (picking up one an operator rebuilt or
    // cleaned). In-flight jobs finish against the old instance —
    // determinism makes the two interchangeable.
    auto fresh = std::make_shared<CompileCache>(cfg.cache);
    if (!cfg.cache.diskDir.empty() && !fresh->diskEnabled()) {
      metrics.recordProtocolError(servicecode::kReloadFailed);
      writeResponse(conn, errorResponse(id, servicecode::kReloadFailed,
                                        fmt("cache directory '%0' is unusable; keeping the old "
                                            "cache", cfg.cache.diskDir)));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(cacheMutex);
      cache = std::move(fresh);
    }
    log("cache reloaded");
    resp.set("cache", json::Value::boolean(true));
    resp.set("dir", json::Value::string(cfg.cache.diskDir));
    writeResponse(conn, resp);
  }

  /// Dispatches one request line. Returns false when the connection
  /// should stop being served (drain-stop acknowledged).
  bool handleRequest(const std::shared_ptr<Connection>& conn, const std::string& line) {
    json::Value req;
    std::string parseError;
    if (!json::parse(line, req, parseError)) {
      metrics.recordProtocolError(servicecode::kParseError);
      writeResponse(*conn, errorResponse(nullptr, servicecode::kParseError, parseError));
      return true;
    }
    if (!req.isObject()) {
      metrics.recordProtocolError(servicecode::kBadRequest);
      writeResponse(*conn, errorResponse(nullptr, servicecode::kBadRequest,
                                         "request must be a JSON object"));
      return true;
    }
    const json::Value* id = req.find("id");
    const json::Value* proto = req.find("proto");
    if (!proto || !proto->isString() || proto->asString() != kServiceProtocol) {
      metrics.recordProtocolError(servicecode::kProtocolVersion);
      writeResponse(*conn,
                    errorResponse(id, servicecode::kProtocolVersion,
                                  fmt("this daemon speaks '%0'; the request carries %1",
                                      kServiceProtocol,
                                      proto && proto->isString()
                                          ? "'" + proto->asString() + "'"
                                          : std::string("no 'proto' field"))));
      return true;
    }
    const json::Value* type = req.find("type");
    if (!type || !type->isString()) {
      metrics.recordProtocolError(servicecode::kBadRequest);
      writeResponse(*conn, errorResponse(id, servicecode::kBadRequest,
                                         "'type' (string) is required"));
      return true;
    }
    const std::string& t = type->asString();
    metrics.recordRequest(t);
    if (t == "compile") handleCompile(conn, req, id);
    else if (t == "batch") handleBatch(conn, req, id);
    else if (t == "status") handleStatus(*conn, id);
    else if (t == "metrics") handleMetrics(*conn, id);
    else if (t == "drain") return handleDrain(*conn, req, id);
    else if (t == "reload") handleReload(*conn, id);
    else if (t == "ping") writeResponse(*conn, envelope("pong", id));
    else {
      metrics.recordProtocolError(servicecode::kUnknownType);
      writeResponse(*conn, errorResponse(id, servicecode::kUnknownType,
                                         fmt("unknown request type '%0'", t)));
    }
    return true;
  }

  // --- connection / accept loops -------------------------------------------

  void serveConnection(std::shared_ptr<Connection> conn) {
    metrics.recordConnectionOpened();
    LineReader reader(conn->fd, cfg.maxRequestBytes);
    std::string line;
    while (!hardStop.load()) {
      const LineReader::Status status = reader.next(line);
      if (status == LineReader::Status::Oversized) {
        // The frame boundary is lost; answer and close so the client
        // can't desynchronize the stream.
        metrics.recordProtocolError(servicecode::kOversized);
        writeResponse(*conn, errorResponse(nullptr, servicecode::kOversized,
                                           fmt("request exceeds the %0-byte frame cap; closing "
                                               "connection", cfg.maxRequestBytes)));
        break;
      }
      if (status != LineReader::Status::Line) break; // EOF (incl. truncated frame) or error
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      metrics.recordBytes(static_cast<int64_t>(line.size()) + 1, 0);
      bool keep = true;
      try {
        keep = handleRequest(conn, line);
      } catch (const std::exception& e) {
        // A handler bug must not take the connection thread down silently.
        writeResponse(*conn, errorResponse(nullptr, servicecode::kBadRequest,
                                           fmt("internal request-handling failure: %0", e.what())));
      }
      if (!keep) break;
    }
    // Closed under connMutex so the shutdown path can never shutdown() a
    // reused fd number. Nothing of *this is touched after activeHandlers
    // drops: shutdown may destroy the daemon as soon as it reads zero.
    std::lock_guard<std::mutex> lock(connMutex);
    ::close(conn->fd);
    conn->fd = -1;
    connections.remove(conn);
    metrics.recordConnectionClosed();
    --activeHandlers;
    connGone.notify_all();
  }

  void acceptLoop() {
    bool exhausted = false;
    while (!stopRequested.load() && !hardStop.load()) {
      pollfd fds[2] = {{listenFd, POLLIN, 0}, {wakeRead, POLLIN, 0}};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        failure = fmt("poll(): %0", std::strerror(errno));
        break;
      }
      if (fds[1].revents) {
        char drainBuf[64];
        [[maybe_unused]] const ssize_t n = ::read(wakeRead, drainBuf, sizeof drainBuf);
        continue; // flags decide what changed; loop condition re-checks
      }
      if (!(fds[0].revents & POLLIN)) continue;
      const int fd = ::accept(listenFd, nullptr, nullptr);
      if (fd < 0) {
        const int err = errno;
        if (err == EINTR || err == ECONNABORTED) continue;
        if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
          // Out of descriptors or buffers: the connection stays queued and
          // the listener stays readable, so wait (waking early for a drain)
          // until closing connections free some, instead of spinning.
          if (!exhausted) log(fmt("accept(): %0; backing off", std::strerror(err)));
          exhausted = true;
          pollfd wakeFd = {wakeRead, POLLIN, 0};
          ::poll(&wakeFd, 1, kAcceptBackoffMs);
          continue;
        }
        failure = fmt("accept(): %0", std::strerror(err));
        break;
      }
      exhausted = false;
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      {
        std::lock_guard<std::mutex> lock(connMutex);
        connections.push_back(conn);
        ++activeHandlers;
      }
      std::thread(&Impl::serveConnection, this, std::move(conn)).detach();
    }

    // Shutdown: refuse new connections, wait out the admission window
    // (unless hard-stopped), unblock every reader, wait for handlers.
    // A failure prints even under --quiet: it is why the daemon stops.
    if (!failure.empty()) std::fprintf(stderr, "roccc-ccd: %s\n", failure.c_str());
    draining.store(true);
    ::close(listenFd);
    listenFd = -1;
    ::unlink(cfg.socketPath.c_str());
    if (!hardStop.load()) {
      std::unique_lock<std::mutex> lock(admitMutex);
      windowEmpty.wait(lock, [this] { return inFlightTotal == 0 || hardStop.load(); });
    }
    stopped.store(true);
    {
      std::lock_guard<std::mutex> lock(connMutex);
      for (const auto& conn : connections) {
        // Read side only: a handler mid-response keeps its write side.
        ::shutdown(conn->fd, hardStop.load() ? SHUT_RDWR : SHUT_RD);
      }
    }
    {
      std::unique_lock<std::mutex> lock(connMutex);
      connGone.wait(lock, [this] { return activeHandlers == 0; });
    }
    log("stopped");
  }
};

ServiceDaemon::ServiceDaemon(ServiceConfig config) : impl_(std::make_unique<Impl>(std::move(config))) {}

ServiceDaemon::~ServiceDaemon() {
  if (impl_->started && !impl_->stopped.load()) stop();
  if (impl_->acceptThread.joinable()) impl_->acceptThread.join();
  if (impl_->wakeRead >= 0) ::close(impl_->wakeRead);
  if (impl_->wakeWrite >= 0) ::close(impl_->wakeWrite);
}

bool ServiceDaemon::start(std::string& error) {
  Impl& d = *impl_;
  if (d.started) {
    error = "daemon already started";
    return false;
  }
  if (d.cfg.maxQueue < 1 || d.cfg.maxClientJobs < 1 || d.cfg.maxRequestBytes < 64) {
    error = "invalid service limits (maxQueue/maxClientJobs >= 1, maxRequestBytes >= 64)";
    return false;
  }
  if (d.cfg.cacheEnabled) {
    d.cache = std::make_shared<CompileCache>(d.cfg.cache);
    if (!d.cfg.cache.diskDir.empty() && !d.cache->diskEnabled()) {
      error = fmt("cannot use cache directory '%0'", d.cfg.cache.diskDir);
      return false;
    }
  }
  int pipeFds[2];
  if (::pipe(pipeFds) != 0) {
    error = fmt("pipe(): %0", std::strerror(errno));
    return false;
  }
  d.wakeRead = pipeFds[0];
  d.wakeWrite = pipeFds[1];
  if (!bindUnixSocket(d.cfg.socketPath, d.listenFd, error)) return false;
  // The pool queue is sized past the admission window so an admitted
  // job's submit can never block a connection thread.
  const size_t workers =
      d.cfg.workers > 0 ? static_cast<size_t>(d.cfg.workers) : 0;
  d.pool = std::make_unique<ThreadPool>(workers, static_cast<size_t>(d.cfg.maxQueue) + 16);
  d.uptime.reset();
  d.acceptThread = std::thread(&Impl::acceptLoop, &d);
  d.started = true;
  d.log(fmt("serving on '%0' (%1 workers, window %2, per-client %3%4)", d.cfg.socketPath,
            d.pool->workerCount(), d.cfg.maxQueue, d.cfg.maxClientJobs,
            d.cache ? (d.cfg.cache.diskDir.empty() ? std::string(", memory cache")
                                                   : ", cache dir " + d.cfg.cache.diskDir)
                    : std::string()));
  return true;
}

void ServiceDaemon::requestDrain() {
  // Async-signal-safe: two relaxed atomic stores and a pipe write.
  impl_->draining.store(true);
  impl_->stopRequested.store(true);
  impl_->wake();
}

bool ServiceDaemon::waitStopped() {
  if (impl_->acceptThread.joinable()) impl_->acceptThread.join();
  return impl_->failure.empty();
}

void ServiceDaemon::stop() {
  impl_->hardStop.store(true);
  impl_->stopRequested.store(true);
  impl_->draining.store(true);
  {
    std::lock_guard<std::mutex> lock(impl_->admitMutex);
    impl_->windowEmpty.notify_all();
  }
  impl_->wake();
  waitStopped();
}

bool ServiceDaemon::running() const { return impl_->started && !impl_->stopped.load(); }

const ServiceConfig& ServiceDaemon::config() const { return impl_->cfg; }

// ---------------------------------------------------------------------------
// ServiceClient

ServiceClient::~ServiceClient() { close(); }

bool ServiceClient::connect(const std::string& socketPath, std::string& error) {
  close();
  if (socketPath.empty() || socketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
    error = fmt("socket path '%0' is empty or too long for AF_UNIX", socketPath);
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error = fmt("socket(): %0", std::strerror(errno));
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socketPath.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = fmt("connect('%0'): %1", socketPath, std::strerror(errno));
    close();
    return false;
  }
  reader_ = LineReader(fd_);
  return true;
}

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = LineReader();
}

bool ServiceClient::request(const json::Value& req, json::Value& response, std::string& error) {
  json::Value framed = req;
  if (framed.isObject() && !framed.find("proto")) {
    framed.set("proto", json::Value::string(kServiceProtocol));
  }
  std::string raw;
  if (!requestRaw(framed.dump(), raw, error)) return false;
  if (!json::parse(raw, response, error)) {
    error = fmt("daemon sent invalid JSON: %0", error);
    return false;
  }
  return true;
}

bool ServiceClient::requestRaw(const std::string& line, std::string& rawResponse,
                               std::string& error) {
  if (fd_ < 0) {
    error = "not connected";
    return false;
  }
  std::string framed = line;
  framed += '\n';
  if (!sendAll(fd_, framed)) {
    error = fmt("send(): %0", std::strerror(errno));
    return false;
  }
  switch (reader_.next(rawResponse)) {
    case LineReader::Status::Line: return true;
    case LineReader::Status::Eof: error = "connection closed by the daemon"; return false;
    case LineReader::Status::Oversized: // uncapped reader: never returned
    case LineReader::Status::Error: break;
  }
  error = fmt("recv(): %0", std::strerror(errno));
  return false;
}

bool ServiceClient::sendBytes(const std::string& bytes, std::string& error) {
  if (fd_ < 0) {
    error = "not connected";
    return false;
  }
  if (!sendAll(fd_, bytes)) {
    error = fmt("send(): %0", std::strerror(errno));
    return false;
  }
  return true;
}

} // namespace roccc
