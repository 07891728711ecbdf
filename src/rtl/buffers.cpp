#include "rtl/buffers.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "support/strings.hpp"

namespace roccc::rtl {

// ---------------------------------------------------------------------------
// Bram
// ---------------------------------------------------------------------------

Bram::Bram(ScalarType elemType, std::vector<int64_t> contents) : elemType_(elemType) {
  data_.reserve(contents.size());
  for (int64_t v : contents) data_.push_back(Value::fromInt(elemType, v));
}

Bram::Bram(ScalarType elemType, size_t size) : elemType_(elemType) {
  data_.assign(size, Value(elemType, 0));
}

Value Bram::read(int64_t addr) {
  const Value v = peek(addr);
  ++reads;
  return v;
}

Value Bram::peek(int64_t addr) const {
  if (addr < 0 || addr >= size()) {
    throw std::runtime_error(fmt("BRAM read out of range: %0 (size %1)", addr, size()));
  }
  return data_[static_cast<size_t>(addr)];
}

void Bram::write(int64_t addr, const Value& v) {
  if (addr < 0 || addr >= size()) {
    throw std::runtime_error(fmt("BRAM write out of range: %0 (size %1)", addr, size()));
  }
  ++writes;
  data_[static_cast<size_t>(addr)] = v.convertTo(elemType_);
}

std::vector<int64_t> Bram::contents() const {
  std::vector<int64_t> out;
  out.reserve(data_.size());
  for (const Value& v : data_) out.push_back(v.toInt());
  return out;
}

// ---------------------------------------------------------------------------
// IterationWalker
// ---------------------------------------------------------------------------

IterationWalker::IterationWalker(std::vector<hlir::LoopDim> loops) : loops_(std::move(loops)) {
  for (const auto& l : loops_) total_ *= l.trips();
}

std::vector<int64_t> IterationWalker::ivsAt(int64_t t) const {
  std::vector<int64_t> ivs;
  ivsAt(t, ivs);
  return ivs;
}

void IterationWalker::ivsAt(int64_t t, std::vector<int64_t>& ivs) const {
  ivs.resize(loops_.size());
  int64_t rem = t;
  for (size_t li = loops_.size(); li-- > 0;) {
    const hlir::LoopDim& l = loops_[li];
    ivs[li] = l.begin + (rem % l.trips()) * l.step;
    rem /= l.trips();
  }
}

// ---------------------------------------------------------------------------
// SmartBuffer
// ---------------------------------------------------------------------------

SmartBuffer::SmartBuffer(const hlir::Stream& stream, const IterationWalker& walker, int busElems)
    : stream_(stream), walker_(walker), busElems_(busElems) {
  assert(busElems_ >= 1);
  // Address envelope across the whole iteration space; affine accesses with
  // positive coefficients make the per-iteration min/max monotone, so the
  // corners are at t=0 and t=total-1.
  const int64_t total = walker_.totalIterations();
  int64_t maxSpan = 1;
  firstAddr_ = INT64_MAX;
  lastAddr_ = INT64_MIN;
  for (int64_t t : {int64_t{0}, total - 1}) {
    const auto ivs = walker_.ivsAt(t);
    for (size_t a = 0; a < stream_.offsets.size(); ++a) {
      const int64_t addr = stream_.flatAddress(a, ivs);
      firstAddr_ = std::min(firstAddr_, addr);
      lastAddr_ = std::max(lastAddr_, addr);
    }
  }
  // Span (for capacity) must consider every iteration; windows have fixed
  // shape so the span is constant — measure it at t = 0.
  {
    const auto ivs = walker_.ivsAt(0);
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    for (size_t a = 0; a < stream_.offsets.size(); ++a) {
      const int64_t addr = stream_.flatAddress(a, ivs);
      lo = std::min(lo, addr);
      hi = std::max(hi, addr);
    }
    maxSpan = hi - lo + 1;
  }
  capacity_ = maxSpan + busElems_;
  fetched_ = firstAddr_;
}

int64_t SmartBuffer::maxAddrOf(int64_t t) const {
  walker_.ivsAt(t, ivs_);
  int64_t hi = INT64_MIN;
  for (size_t a = 0; a < stream_.offsets.size(); ++a) {
    hi = std::max(hi, stream_.flatAddress(a, ivs_));
  }
  return hi;
}

void SmartBuffer::cycle(Bram& bram) {
  if (fetched_ > lastAddr_) return; // everything on chip
  const int64_t n = std::min<int64_t>(busElems_, lastAddr_ - fetched_ + 1);
  for (int64_t k = 0; k < n; ++k) {
    (void)bram.read(fetched_ + k); // counts traffic; data served from BRAM below
  }
  fetched_ += n;
}

bool SmartBuffer::windowReady(int64_t t) const { return fetched_ > maxAddrOf(t); }

void SmartBuffer::window(const Bram& bram, int64_t t, std::vector<Value>& out) const {
  assert(windowReady(t));
  walker_.ivsAt(t, ivs_);
  out.clear();
  for (size_t a = 0; a < stream_.offsets.size(); ++a) {
    out.push_back(bram.peek(stream_.flatAddress(a, ivs_)));
  }
}

// ---------------------------------------------------------------------------
// NaiveBuffer
// ---------------------------------------------------------------------------

NaiveBuffer::NaiveBuffer(const hlir::Stream& stream, const IterationWalker& walker, int busElems)
    : stream_(stream), walker_(walker), busElems_(busElems) {}

void NaiveBuffer::cycle(Bram& bram) {
  if (currentIter_ >= walker_.totalIterations()) return;
  const int64_t windowElems = static_cast<int64_t>(stream_.offsets.size());
  if (elemsFetched_ >= windowElems) return;
  const int64_t n = std::min<int64_t>(busElems_, windowElems - elemsFetched_);
  walker_.ivsAt(currentIter_, ivs_);
  for (int64_t k = 0; k < n; ++k) {
    (void)bram.read(stream_.flatAddress(static_cast<size_t>(elemsFetched_ + k), ivs_));
    ++fetches_;
  }
  elemsFetched_ += n;
}

bool NaiveBuffer::windowReady(int64_t t) const {
  return t == currentIter_ && elemsFetched_ >= static_cast<int64_t>(stream_.offsets.size());
}

void NaiveBuffer::window(const Bram& bram, int64_t t, std::vector<Value>& out) const {
  assert(windowReady(t));
  walker_.ivsAt(t, ivs_);
  out.clear();
  for (size_t a = 0; a < stream_.offsets.size(); ++a) {
    out.push_back(bram.peek(stream_.flatAddress(a, ivs_)));
  }
}

int64_t NaiveBuffer::capacityElems() const { return static_cast<int64_t>(stream_.offsets.size()); }

void NaiveBuffer::advance() {
  ++currentIter_;
  elemsFetched_ = 0;
}

// ---------------------------------------------------------------------------
// OutputCollector
// ---------------------------------------------------------------------------

OutputCollector::OutputCollector(const hlir::Stream& stream, const IterationWalker& walker,
                                 int busElems, size_t fifoDepth)
    : stream_(stream), walker_(walker), busElems_(busElems), fifoDepth_(fifoDepth),
      fifo_(fifoDepth) {}

void OutputCollector::push(int64_t t, const std::vector<Value>& values) {
  assert(hasRoom());
  assert(values.size() == stream_.offsets.size());
  Pending& p = fifo_[(head_ + count_) % fifoDepth_];
  p.iter = t;
  p.values.assign(values.begin(), values.end());
  p.written = 0;
  ++count_;
}

void OutputCollector::cycle(Bram& bram) {
  int budget = busElems_;
  while (budget > 0 && count_ > 0) {
    Pending& p = fifo_[head_];
    walker_.ivsAt(p.iter, ivs_);
    while (budget > 0 && p.written < p.values.size()) {
      bram.write(stream_.flatAddress(p.written, ivs_), p.values[p.written]);
      ++p.written;
      ++writes_;
      --budget;
    }
    if (p.written == p.values.size()) {
      head_ = (head_ + 1) % fifoDepth_;
      --count_;
    } else {
      break;
    }
  }
}

} // namespace roccc::rtl
