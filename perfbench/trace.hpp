// In-memory span recorder for the benchmark's traced runs.
//
// A span is recorded around one call into a layer's public functions: its
// name ("vhdl.check", "verify.kernel", ...), start, end, parent span and
// job. Spans nest on the one measuring thread. A span's self time is its
// duration minus the time its direct children cover, and is summed per
// name as the span closes, so per-layer totals need no second pass. A
// child can also be recorded after the fact from a time the library
// measured itself (record(), used for PassStatistics::wallMs). The first
// `keep` spans are also kept for the Chrome trace-event export (opens in
// https://ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = ""; ///< static or interned; outlives the tracer
  int64_t startNs = 0;
  int64_t endNs = 0;
  int parent = -1; ///< index of the enclosing kept span, -1 for a root
  int job = -1;    ///< index into the job set
};

struct SpanTotals {
  int64_t selfNs = 0;
  int64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t keep) : keep_(keep) {}

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int job) : tracer_(tracer) { tracer_.open(name, job); }
    ~Scope() { tracer_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Start of this span (the innermost open one).
    int64_t startNs() const { return tracer_.stack_.back().startNs; }

   private:
    Tracer& tracer_;
  };

  /// Records a closed, childless span of the given duration inside the
  /// innermost open span, starting at `startNs`.
  void record(const char* name, int64_t startNs, int64_t durNs, int job) {
    ++spanCount_;
    const int parent = stack_.empty() ? -1 : stack_.back().keptIndex;
    if (kept_.size() < keep_) kept_.push_back({name, startNs, startNs + durNs, parent, job});
    SpanTotals& t = totals_[name];
    t.selfNs += durNs;
    ++t.count;
    if (!stack_.empty()) stack_.back().childNs += durNs;
  }

  const std::vector<Span>& kept() const { return kept_; }
  const std::map<std::string, SpanTotals>& totals() const { return totals_; }
  int64_t spanCount() const { return spanCount_; }

 private:
  struct Frame {
    const char* name;
    int64_t startNs;
    int64_t childNs;
    int keptIndex; ///< -1 when past the export cap
  };

  void open(const char* name, int job) {
    ++spanCount_;
    const int parent = stack_.empty() ? -1 : stack_.back().keptIndex;
    int keptIndex = -1;
    const int64_t start = nowNs();
    if (kept_.size() < keep_) {
      keptIndex = static_cast<int>(kept_.size());
      kept_.push_back({name, start, start, parent, job});
    }
    stack_.push_back({name, start, 0, keptIndex});
  }

  void close() {
    const int64_t end = nowNs();
    const Frame f = stack_.back();
    stack_.pop_back();
    const int64_t dur = end - f.startNs;
    SpanTotals& t = totals_[f.name];
    t.selfNs += dur - f.childNs;
    ++t.count;
    if (f.keptIndex >= 0) kept_[static_cast<size_t>(f.keptIndex)].endNs = end;
    if (!stack_.empty()) stack_.back().childNs += dur;
  }

  size_t keep_;
  int64_t spanCount_ = 0;
  std::vector<Frame> stack_;
  std::vector<Span> kept_;
  std::map<std::string, SpanTotals> totals_;
};

} // namespace perfbench
