#include "support/range.hpp"

#include <array>
#include <sstream>

namespace roccc {

namespace {

using Int = ValueRange::Int;

// Smallest power-of-two-minus-1 >= v (v >= 0).
Int ceilPow2Mask(Int v) {
  Int m = 0;
  while (m < v) m = (m << 1) | 1;
  return m;
}

} // namespace

ValueRange ValueRange::ofType(ScalarType t) {
  if (!t.isSigned) {
    const Int hi = (Int{1} << t.width) - 1;
    return {0, hi};
  }
  const Int hi = (Int{1} << (t.width - 1)) - 1;
  return {-hi - 1, hi};
}

int ValueRange::requiredWidth(bool* needsSign) const {
  const bool sign = lo_ < 0;
  if (needsSign) *needsSign = sign;
  int w = 1;
  if (sign) {
    // Width w holds [-2^(w-1), 2^(w-1)-1].
    while (lo_ < -(Int{1} << (w - 1)) || hi_ > (Int{1} << (w - 1)) - 1) ++w;
  } else {
    while (hi_ > (Int{1} << w) - 1) ++w;
  }
  return w;
}

bool ValueRange::fitsIn(ScalarType t) const {
  return containedIn(ofType(t));
}

ValueRange ValueRange::mul(const ValueRange& b) const {
  const std::array<Int, 4> corners = {lo_ * b.lo_, lo_ * b.hi_, hi_ * b.lo_, hi_ * b.hi_};
  Int lo = corners[0], hi = corners[0];
  for (Int c : corners) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  return {lo, hi};
}

ValueRange ValueRange::shl(const ValueRange& sh) const {
  const Int sLo = std::max<Int>(0, sh.lo_);
  const Int sHi = std::min<Int>(63, std::max<Int>(0, sh.hi_));
  const std::array<Int, 4> corners = {lo_ << sLo, lo_ << sHi, hi_ << sLo, hi_ << sHi};
  Int lo = corners[0], hi = corners[0];
  for (Int c : corners) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  return {lo, hi};
}

ValueRange ValueRange::shr(const ValueRange& sh) const {
  const Int sLo = std::max<Int>(0, sh.lo_);
  const Int sHi = std::min<Int>(127, std::max<Int>(0, sh.hi_));
  const std::array<Int, 4> corners = {lo_ >> sLo, lo_ >> sHi, hi_ >> sLo, hi_ >> sHi};
  Int lo = corners[0], hi = corners[0];
  for (Int c : corners) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  return {lo, hi};
}

ValueRange ValueRange::bitAnd(const ValueRange& b) const {
  if (lo_ >= 0 && b.lo_ >= 0) {
    // Nonnegative & nonnegative: result in [0, min(maxA, maxB)].
    return {0, std::min(hi_, b.hi_)};
  }
  // Mixed signs: bound by the wider operand hull rounded to a power of two.
  const Int m = ceilPow2Mask(std::max({hi_ < 0 ? Int{0} : hi_, b.hi_ < 0 ? Int{0} : b.hi_,
                                       lo_ < 0 ? -lo_ : Int{0}, b.lo_ < 0 ? -b.lo_ : Int{0}}));
  return {-(m + 1), m};
}

ValueRange ValueRange::bitOr(const ValueRange& b) const {
  if (lo_ >= 0 && b.lo_ >= 0) {
    return {0, ceilPow2Mask(std::max(hi_, b.hi_))};
  }
  const Int m = ceilPow2Mask(std::max({hi_ < 0 ? Int{0} : hi_, b.hi_ < 0 ? Int{0} : b.hi_,
                                       lo_ < 0 ? -lo_ : Int{0}, b.lo_ < 0 ? -b.lo_ : Int{0}}));
  return {-(m + 1), m};
}

ValueRange ValueRange::bitXor(const ValueRange& b) const {
  return bitOr(b); // same conservative hull
}

ValueRange ValueRange::convertTo(ScalarType t) const {
  if (fitsIn(t)) return *this;
  return ofType(t);
}

std::string ValueRange::str() const {
  auto p = [](std::ostringstream& os, Int v) {
    if (v < 0) {
      os << '-';
      v = -v;
    }
    std::string digits;
    if (v == 0) digits = "0";
    while (v > 0) {
      digits.push_back(static_cast<char>('0' + static_cast<int>(v % 10)));
      v /= 10;
    }
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) os << *it;
  };
  std::ostringstream os;
  os << '[';
  p(os, lo_);
  os << ", ";
  p(os, hi_);
  os << ']';
  return os.str();
}

} // namespace roccc
