// Signed interval arithmetic used by the data-path bit-width inference pass
// (paper section 4.2.4: "The compiler infers the inner signals' bit size
// automatically" / section 5: "We derive bit width only based on port size
// and opcodes").
//
// Intervals are tracked in 128-bit so that a 32x32 multiply never overflows
// the analysis domain. An interval that cannot be proven to fit the
// operation's C-semantics width collapses to the full range of that width —
// the inference then keeps the full 32-bit signal, which is always sound.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "support/value.hpp"

namespace roccc {

/// Closed signed interval [lo, hi] over __int128.
class ValueRange {
 public:
  using Int = __int128;

  ValueRange() = default;
  ValueRange(Int lo, Int hi) : lo_(lo), hi_(hi) {}

  /// Full range of a scalar type.
  static ValueRange ofType(ScalarType t);
  static ValueRange constant(int64_t v) { return {v, v}; }

  Int lo() const { return lo_; }
  Int hi() const { return hi_; }

  bool contains(Int v) const { return lo_ <= v && v <= hi_; }
  bool containedIn(const ValueRange& other) const { return other.lo_ <= lo_ && hi_ <= other.hi_; }

  /// Least-upper-bound (union hull), used at dataflow joins (mux inputs).
  ValueRange join(const ValueRange& other) const {
    return {std::min(lo_, other.lo_), std::max(hi_, other.hi_)};
  }

  /// Smallest two's-complement width holding every value in the range
  /// (at least 1; signed representation whenever lo < 0).
  int requiredWidth(bool* needsSign = nullptr) const;

  /// True if every value in the range is representable in `t`.
  bool fitsIn(ScalarType t) const;

  // --- Transfer functions. Each returns the exact hull of op over the two
  // --- input hulls (intervals are exact for monotone ops; mul/shift take
  // --- corner extrema; bitwise ops use conservative power-of-two bounds).
  ValueRange add(const ValueRange& b) const { return {lo_ + b.lo_, hi_ + b.hi_}; }
  ValueRange sub(const ValueRange& b) const { return {lo_ - b.hi_, hi_ - b.lo_}; }
  ValueRange mul(const ValueRange& b) const;
  ValueRange neg() const { return {-hi_, -lo_}; }
  ValueRange shl(const ValueRange& sh) const;
  ValueRange shr(const ValueRange& sh) const;
  ValueRange bitAnd(const ValueRange& b) const;
  ValueRange bitOr(const ValueRange& b) const;
  ValueRange bitXor(const ValueRange& b) const;
  ValueRange bitNot() const { return {~hi_, ~lo_}; }
  /// Comparison results are 1-bit.
  static ValueRange boolean() { return {0, 1}; }
  /// Conversion to a type: if the range fits, it survives; otherwise the
  /// result is the full range of the destination (wraparound discards info).
  ValueRange convertTo(ScalarType t) const;

  std::string str() const;

  friend bool operator==(const ValueRange&, const ValueRange&) = default;

 private:
  Int lo_ = 0;
  Int hi_ = 0;
};

} // namespace roccc
