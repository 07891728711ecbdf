// roccc-ccd — the compile-as-a-service daemon (and its client half).
//
// ServiceDaemon wraps the batch compile stack (the contained single-job
// body shared with CompileService, per-job CompileBudget governance, the
// content-addressed CompileCache) behind a local AF_UNIX stream socket
// speaking `roccc-ccd-v1`: a versioned, line-delimited JSON protocol with
// request types {compile, batch, status, metrics, drain, reload, ping}.
// docs/SERVICE.md is the operations book: every request/response field,
// the lifecycle, quota/backpressure semantics, and the metrics glossary.
//
// Serving model:
//   - one accept loop, one thread per connection, requests on a
//     connection handled strictly in order (responses line up with
//     requests; a batch request is one request);
//   - compiles run on a shared fixed-size ThreadPool behind a *bounded
//     admission window*: at most `maxQueue` jobs admitted-but-unfinished
//     across all clients, at most `maxClientJobs` per connection. Past
//     either bound a job is rejected with a typed error (`queue-full`,
//     `quota-exceeded`) — extending the PR 4 outcome taxonomy to the
//     service edge: a client can be rejected, the daemon cannot crash;
//   - a batch's jobs are admitted atomically up front, so which rows of
//     an oversized batch get rejected is deterministic (the tail);
//   - per-job budgets requested by clients are clamped to the server's
//     configured ceilings (quotas layered on CompileBudget);
//   - the optional CompileCache is shared by every client and, with a
//     disk tier (`--cache-dir`), by every daemon generation — PR 3/5
//     determinism is what makes any replica's answer interchangeable.
//
// Lifecycle: Serving → (drain) → Draining → Stopped. `drain` stops
// admitting compile jobs (typed `draining` rejection), waits for the
// admission window to empty, replies, then stops the daemon; the "pause"
// mode holds the daemon in Draining (resumable) for maintenance instead.
// SIGTERM/SIGINT map to requestDrain(), which is async-signal-safe.
//
// Fault containment carries over wholesale: a faulting job is a typed
// `internal-error` response, never a daemon death — the soak tests drive
// the PR 4 fault-injection points through the socket to prove it.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "roccc/cache.hpp"
#include "roccc/driver.hpp"
#include "support/json.hpp"

namespace roccc {

/// The protocol version string carried by every request and response.
extern const char* const kServiceProtocol; // "roccc-ccd-v1"

/// Typed service-edge error codes (the `error.code` field of an error
/// response). Protocol errors and admission rejections share the space.
namespace servicecode {
inline constexpr const char* kParseError = "parse-error";
inline constexpr const char* kBadRequest = "bad-request";
inline constexpr const char* kProtocolVersion = "protocol-version";
inline constexpr const char* kUnknownType = "unknown-type";
inline constexpr const char* kOversized = "oversized";
inline constexpr const char* kQueueFull = "queue-full";
inline constexpr const char* kDraining = "draining";
inline constexpr const char* kQuotaExceeded = "quota-exceeded";
inline constexpr const char* kReloadFailed = "reload-failed";
} // namespace servicecode

struct ServiceConfig {
  /// Filesystem path the AF_UNIX listener binds (unlinked on shutdown).
  std::string socketPath = "roccc-ccd.sock";
  /// Compile workers; 0 = one per hardware thread.
  int workers = 0;
  /// Admission window: max jobs admitted-but-unfinished across all
  /// clients. Past it, compile jobs are rejected `queue-full`.
  int maxQueue = 256;
  /// Per-connection quota: max jobs one client may have in the window.
  int maxClientJobs = 64;
  /// Hard cap on one request line; longer frames get an `oversized`
  /// error and the connection is closed (framing can't be trusted).
  int64_t maxRequestBytes = 8ll * 1024 * 1024;
  /// Compile cache shared across all clients (and, with a diskDir,
  /// across daemon generations). Disabled when false.
  bool cacheEnabled = false;
  CacheConfig cache;
  /// Server-side defaults for every compile (timing model, etc.); client
  /// options override the semantic fields, budgets are clamped below.
  CompileOptions baseOptions;
  /// Ceilings clamped onto every client-requested budget: a client may
  /// tighten its job's budget but never exceed these. 0 = no ceiling.
  BudgetLimits budgetCeiling;
  /// Log one line per lifecycle event to stderr when false.
  bool quiet = true;
};

/// Monotonic service counters plus the bucketed service-time histogram —
/// everything the `metrics` request reports. Thread-safe; snapshot with
/// toJson(). "Service time" is admission-to-completion per job (queue
/// wait included), so p50/p95 reflect what a client experiences.
class ServiceMetrics {
 public:
  void recordRequest(const std::string& type);
  void recordProtocolError(const char* code);
  void recordRejection(const char* code);
  void recordJobAdmitted();
  void recordJobCompleted(CompileOutcome outcome, bool cacheHit, double serviceMs);
  void recordConnectionOpened();
  void recordConnectionClosed();
  void recordBytes(int64_t in, int64_t out);
  void setQueueDepth(int depth) { queueDepth_.store(depth, std::memory_order_relaxed); }

  int64_t jobsCompleted() const { return jobsCompleted_.load(std::memory_order_relaxed); }
  int64_t connectionsOpen() const { return connectionsOpen_.load(std::memory_order_relaxed); }

  /// The `metrics` response body: uptime, jobs/s, outcome counts, cache
  /// hit rate, queue depth, service-time percentiles (p50/p95 from the
  /// log-spaced histogram), request/rejection/byte counters.
  json::Value toJson(double uptimeSec) const;

 private:
  std::atomic<int64_t> requestsTotal_{0};
  std::atomic<int64_t> requestsCompile_{0}, requestsBatch_{0}, requestsStatus_{0},
      requestsMetrics_{0}, requestsDrain_{0}, requestsReload_{0}, requestsPing_{0};
  std::atomic<int64_t> protocolErrors_{0};
  std::atomic<int64_t> rejectedQueueFull_{0}, rejectedDraining_{0}, rejectedQuota_{0};
  std::atomic<int64_t> jobsAdmitted_{0}, jobsCompleted_{0};
  std::atomic<int64_t> outcomeCounts_[5] = {{0}, {0}, {0}, {0}, {0}};
  std::atomic<int64_t> cacheHits_{0}, cacheMisses_{0};
  std::atomic<int64_t> bytesIn_{0}, bytesOut_{0};
  std::atomic<int64_t> connectionsAccepted_{0}, connectionsOpen_{0};
  std::atomic<int> queueDepth_{0};

  // Log-spaced service-time buckets; a small mutex guards the histogram
  // (one lock per completed job — noise next to a compile).
  static constexpr double kBucketUpperMs[] = {0.5,  1,    2,    5,    10,   20,  50,
                                              100,  200,  500,  1000, 2000, 5000, 10000};
  static constexpr int kBuckets = static_cast<int>(std::size(kBucketUpperMs)) + 1;
  mutable std::mutex histMutex_;
  int64_t histCounts_[kBuckets] = {};
  double serviceMsSum_ = 0;
  double serviceMsMax_ = 0;

  double percentileMs(double q) const; ///< histMutex_ held by caller
};

class ServiceDaemon {
 public:
  explicit ServiceDaemon(ServiceConfig config);
  ~ServiceDaemon();
  ServiceDaemon(const ServiceDaemon&) = delete;
  ServiceDaemon& operator=(const ServiceDaemon&) = delete;

  /// Binds the socket, spawns the accept loop and worker pool. False (with
  /// `error`) when the socket can't bind or the cache dir is unusable.
  bool start(std::string& error);

  /// Async-signal-safe drain trigger (the SIGTERM/SIGINT path): behaves
  /// like a client `drain` request with no response to send.
  void requestDrain();

  /// Blocks until the daemon has fully stopped (drained and joined).
  void waitStopped();

  /// Immediate shutdown for tests and error paths: closes everything
  /// without waiting for in-flight jobs' clients to be answered.
  void stop();

  bool running() const;
  const ServiceConfig& config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Buffered newline-framed reader over a blocking socket. The daemon reads
/// requests with it (capped at ServiceConfig::maxRequestBytes) and
/// ServiceClient reads responses (uncapped). Every received byte is
/// scanned for the newline once, however many recv() calls a frame takes.
class LineReader {
 public:
  enum class Status { Line, Eof, Oversized, Error };

  explicit LineReader(int fd = -1, int64_t maxLineBytes = std::numeric_limits<int64_t>::max())
      : fd_(fd), maxLineBytes_(maxLineBytes) {}

  /// The next line, newline stripped. Eof: the peer closed (a partial
  /// line is a truncated frame). Error: recv() failed and errno says why.
  Status next(std::string& line);

 private:
  int fd_;
  int64_t maxLineBytes_;
  std::string buf_;
  size_t scanned_ = 0; ///< bytes of buf_ already known to hold no newline
};

/// One client connection to a roccc-ccd socket. Blocking, line-oriented;
/// used by tools/roccc_client.cpp, the tests, and bench_service.
class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  bool connect(const std::string& socketPath, std::string& error);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Sends one request object (protocol/version field added when absent)
  /// and reads one response line. False on transport errors or when the
  /// response is not valid JSON.
  bool request(const json::Value& req, json::Value& response, std::string& error);

  /// Raw frame exchange for protocol-robustness harnesses: writes
  /// `line` + '\n' verbatim and reads one response line (unparsed).
  bool requestRaw(const std::string& line, std::string& rawResponse, std::string& error);

  /// Sends raw bytes with no trailing newline and no read — a truncated
  /// frame, for robustness tests.
  bool sendBytes(const std::string& bytes, std::string& error);

 private:
  int fd_ = -1;
  LineReader reader_; ///< holds bytes read past the last returned line
};

/// Builds a `compile` request for (name, source) with an options object;
/// the client CLI and tests share it so they can't drift.
json::Value makeCompileRequest(const std::string& name, const std::string& source,
                               json::Value options = json::Value::object());

/// Parses a protocol options object into CompileOptions on top of `base`,
/// clamping budget fields to `ceiling`. The keys are the option table's
/// (roccc/options.hpp) plus the presentation key `verilog`. Strict: unknown
/// keys, wrong types and out-of-range values fail with a message (the
/// daemon answers `bad-request`).
bool compileOptionsFromJson(const json::Value& options, const CompileOptions& base,
                            const BudgetLimits& ceiling, CompileOptions& out, std::string& error);

} // namespace roccc
