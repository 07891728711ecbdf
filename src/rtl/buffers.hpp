// The memory-side components of the execution model (paper Fig 2 and
// section 4.1): block RAMs, address generators, the *smart buffer* that
// reuses live input data across sliding windows (ref [18]), a non-reusing
// buffer for the ablation study, and the output collector.
//
// All components are cycle-accurate: each models exactly the work its
// hardware counterpart performs per clock (one BRAM port access per cycle,
// `busElems` elements per access).
#pragma once

#include <cstdint>
#include <vector>

#include "hlir/kernel.hpp"
#include "support/value.hpp"

namespace roccc::rtl {

/// Dual-port-style block RAM holding one stream's data. Read latency is
/// folded into the buffer pipeline (the paper's smart buffer registers
/// incoming data anyway).
class Bram {
 public:
  Bram(ScalarType elemType, std::vector<int64_t> contents);
  explicit Bram(ScalarType elemType, size_t size);

  /// One BRAM-port read: bounds-checked and counted in `reads`.
  Value read(int64_t addr);
  /// Bounds-checked and not counted: the value a buffer already holds on
  /// chip (a smart buffer serving a window from data it fetched earlier).
  Value peek(int64_t addr) const;
  void write(int64_t addr, const Value& v);
  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  std::vector<int64_t> contents() const;

  int64_t reads = 0;  ///< total element reads (traffic statistics)
  int64_t writes = 0;

 private:
  ScalarType elemType_;
  std::vector<Value> data_;
};

/// Iteration-space walker: decodes iteration index -> induction values.
/// This is the "higher-level controller + address generators" pair: the
/// address generators below ask it where the window sits.
class IterationWalker {
 public:
  explicit IterationWalker(std::vector<hlir::LoopDim> loops);

  int64_t totalIterations() const { return total_; }
  std::vector<int64_t> ivsAt(int64_t t) const;
  /// Allocation-free form for per-cycle callers: resizes `ivs` to the nest
  /// depth and fills it (its capacity survives across calls).
  void ivsAt(int64_t t, std::vector<int64_t>& ivs) const;

 private:
  std::vector<hlir::LoopDim> loops_;
  int64_t total_ = 1;
};

/// Interface shared by the smart and naive input buffers.
class InputBuffer {
 public:
  virtual ~InputBuffer() = default;
  /// One clock of fetch work against the stream's BRAM.
  virtual void cycle(Bram& bram) = 0;
  /// True when the access window of iteration `t` is fully buffered.
  virtual bool windowReady(int64_t t) const = 0;
  /// Fills `out` with the window values of iteration `t` in access order
  /// (requires windowReady). Served from buffered data: no BRAM traffic.
  virtual void window(const Bram& bram, int64_t t, std::vector<Value>& out) const = 0;
  /// Buffer storage capacity in elements (for the area model).
  virtual int64_t capacityElems() const = 0;
  virtual int64_t fetchCount() const = 0;
};

/// Smart buffer (section 4.1): fetches every element exactly once, in
/// order, and serves each iteration's window from buffered data — "able to
/// reuse live input data, clean unused data and export the present valid
/// input data set".
class SmartBuffer final : public InputBuffer {
 public:
  SmartBuffer(const hlir::Stream& stream, const IterationWalker& walker, int busElems);

  void cycle(Bram& bram) override;
  bool windowReady(int64_t t) const override;
  void window(const Bram& bram, int64_t t, std::vector<Value>& out) const override;
  int64_t capacityElems() const override { return capacity_; }
  int64_t fetchCount() const override { return fetched_ - firstAddr_; }

 private:
  const hlir::Stream& stream_;
  const IterationWalker& walker_;
  int busElems_;
  int64_t firstAddr_ = 0; ///< smallest address any iteration touches
  int64_t lastAddr_ = 0;  ///< largest
  int64_t fetched_;       ///< next unfetched address
  int64_t capacity_ = 0;
  mutable std::vector<int64_t> ivs_; ///< ivsAt scratch for the per-cycle queries

  int64_t maxAddrOf(int64_t t) const;
};

/// Naive buffer (ablation baseline): re-fetches the whole window for every
/// iteration; no reuse. Models what Streams-C style codes do without
/// hand-written reuse (section 3 discussion).
class NaiveBuffer final : public InputBuffer {
 public:
  NaiveBuffer(const hlir::Stream& stream, const IterationWalker& walker, int busElems);

  void cycle(Bram& bram) override;
  bool windowReady(int64_t t) const override;
  void window(const Bram& bram, int64_t t, std::vector<Value>& out) const override;
  int64_t capacityElems() const override;
  int64_t fetchCount() const override { return fetches_; }

  /// The buffer only holds the current iteration's window; the system must
  /// tell it when the pipeline consumed it.
  void advance();

 private:
  const hlir::Stream& stream_;
  const IterationWalker& walker_;
  int busElems_;
  int64_t currentIter_ = 0;
  int64_t elemsFetched_ = 0; ///< of the current window
  int64_t fetches_ = 0;
  mutable std::vector<int64_t> ivs_; ///< ivsAt scratch
};

/// Output side: accepts one output window per enabled iteration and drains
/// it into the stream's BRAM at `busElems` elements per clock through a
/// small FIFO (backpressure stalls the pipeline when full).
class OutputCollector {
 public:
  OutputCollector(const hlir::Stream& stream, const IterationWalker& walker, int busElems,
                  size_t fifoDepth = 8);

  bool hasRoom() const { return count_ < fifoDepth_; }
  /// Queues a copy of iteration t's output window (values in access order).
  void push(int64_t t, const std::vector<Value>& values);
  /// One clock of drain work.
  void cycle(Bram& bram);
  bool drained() const { return count_ == 0; }
  int64_t writeCount() const { return writes_; }

 private:
  const hlir::Stream& stream_;
  const IterationWalker& walker_;
  int busElems_;
  size_t fifoDepth_;
  struct Pending {
    int64_t iter = 0;
    std::vector<Value> values;
    size_t written = 0;
  };
  /// Ring of fifoDepth_ slots whose value buffers are reused, so queueing a
  /// window does not allocate once every slot has held one.
  std::vector<Pending> fifo_;
  size_t head_ = 0;  ///< oldest queued window
  size_t count_ = 0; ///< queued windows
  int64_t writes_ = 0;
  std::vector<int64_t> ivs_; ///< ivsAt scratch
};

} // namespace roccc::rtl
