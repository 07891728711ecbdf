#include "support/value.hpp"

#include <sstream>

namespace roccc {

int64_t ScalarType::minValue() const {
  if (!isSigned) return 0;
  if (width == 64) return INT64_MIN;
  return -(int64_t{1} << (width - 1));
}

int64_t ScalarType::maxValue() const {
  if (!isSigned) {
    // Unsigned max can exceed int64 range at width 64; callers that care use
    // unsigned paths. Saturate here for the 64-bit corner.
    if (width == 64) return INT64_MAX;
    return static_cast<int64_t>((uint64_t{1} << width) - 1);
  }
  if (width == 64) return INT64_MAX;
  return (int64_t{1} << (width - 1)) - 1;
}

std::string ScalarType::str() const {
  std::ostringstream os;
  os << (isSigned ? "int" : "uint") << width;
  return os.str();
}

Value Value::bit(int index) const {
  assert(index >= 0 && index < type_.width);
  return Value(ScalarType::boolTy(), (bits_ >> index) & 1);
}

Value Value::slice(int lo, int sliceWidth) const {
  assert(lo >= 0 && sliceWidth >= 1 && lo + sliceWidth <= type_.width);
  return Value(ScalarType::make(sliceWidth, false), bits_ >> lo);
}

std::string Value::str() const {
  std::ostringstream os;
  if (type_.isSigned)
    os << toInt();
  else
    os << toUnsigned();
  os << ':' << type_.str();
  return os.str();
}

namespace ops {
namespace {

// The operands are extended (per their own signedness) to 64 bits and the
// operation is performed there; the result constructor wraps to rt.width.
int64_t sx(const Value& v) { return v.toInt(); }
uint64_t zx(const Value& v) { return v.toUnsigned(); }

bool unsignedCompare(const Value& a, const Value& b) {
  // C usual arithmetic conversions on the 32-bit promotion lattice: the
  // compare is unsigned iff either operand is unsigned at full (>=32) width.
  return (!a.isSigned() && a.width() >= 32) || (!b.isSigned() && b.width() >= 32);
}

} // namespace

Value add(const Value& a, const Value& b, ScalarType rt) {
  return Value(rt, static_cast<uint64_t>(sx(a)) + static_cast<uint64_t>(sx(b)));
}

Value sub(const Value& a, const Value& b, ScalarType rt) {
  return Value(rt, static_cast<uint64_t>(sx(a)) - static_cast<uint64_t>(sx(b)));
}

Value mul(const Value& a, const Value& b, ScalarType rt) {
  return Value(rt, static_cast<uint64_t>(sx(a)) * static_cast<uint64_t>(sx(b)));
}

Value divide(const Value& a, const Value& b, ScalarType rt) {
  if (b.bits() == 0) return Value(rt, ~uint64_t{0}); // all-ones: divider convention
  if (rt.isSigned) {
    return Value(rt, static_cast<uint64_t>(sx(a) / sx(b)));
  }
  return Value(rt, zx(a) / zx(b));
}

Value rem(const Value& a, const Value& b, ScalarType rt) {
  if (b.bits() == 0) return Value(rt, a.bits()); // remainder = dividend
  if (rt.isSigned) {
    return Value(rt, static_cast<uint64_t>(sx(a) % sx(b)));
  }
  return Value(rt, zx(a) % zx(b));
}

Value neg(const Value& a, ScalarType rt) {
  return Value(rt, 0 - static_cast<uint64_t>(sx(a)));
}

Value bitAnd(const Value& a, const Value& b, ScalarType rt) {
  return Value(rt, static_cast<uint64_t>(sx(a)) & static_cast<uint64_t>(sx(b)));
}

Value bitOr(const Value& a, const Value& b, ScalarType rt) {
  return Value(rt, static_cast<uint64_t>(sx(a)) | static_cast<uint64_t>(sx(b)));
}

Value bitXor(const Value& a, const Value& b, ScalarType rt) {
  return Value(rt, static_cast<uint64_t>(sx(a)) ^ static_cast<uint64_t>(sx(b)));
}

Value bitNot(const Value& a, ScalarType rt) {
  return Value(rt, ~static_cast<uint64_t>(sx(a)));
}

Value shl(const Value& a, const Value& sh, ScalarType rt) {
  const uint64_t amount = zx(sh);
  if (amount >= 64) return Value(rt, 0);
  return Value(rt, static_cast<uint64_t>(sx(a)) << amount);
}

Value shr(const Value& a, const Value& sh, ScalarType rt) {
  const uint64_t amount = zx(sh);
  if (a.isSigned()) {
    const int64_t v = sx(a);
    const uint64_t n = amount >= 63 ? 63 : amount;
    return Value(rt, static_cast<uint64_t>(v >> n));
  }
  if (amount >= 64) return Value(rt, 0);
  return Value(rt, zx(a) >> amount);
}

Value cmpEq(const Value& a, const Value& b) { return Value::ofBool(sx(a) == sx(b)); }
Value cmpNe(const Value& a, const Value& b) { return Value::ofBool(sx(a) != sx(b)); }

Value cmpLt(const Value& a, const Value& b) {
  if (unsignedCompare(a, b)) return Value::ofBool(Value::mask(static_cast<uint64_t>(sx(a)), 32) < Value::mask(static_cast<uint64_t>(sx(b)), 32));
  return Value::ofBool(sx(a) < sx(b));
}

Value cmpLe(const Value& a, const Value& b) {
  if (unsignedCompare(a, b)) return Value::ofBool(Value::mask(static_cast<uint64_t>(sx(a)), 32) <= Value::mask(static_cast<uint64_t>(sx(b)), 32));
  return Value::ofBool(sx(a) <= sx(b));
}

Value cmpGt(const Value& a, const Value& b) { return cmpLt(b, a); }
Value cmpGe(const Value& a, const Value& b) { return cmpLe(b, a); }

Value mux(const Value& sel, const Value& a, const Value& b, ScalarType rt) {
  return (sel.bits() != 0 ? a : b).convertTo(rt);
}

} // namespace ops

int bitsForUnsigned(uint64_t v) {
  int bits = 1;
  while (v > 1) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

int bitsForSigned(int64_t v) {
  if (v >= 0) return bitsForUnsigned(static_cast<uint64_t>(v)) + 1;
  // Smallest width w with v >= -2^(w-1); w=1 holds exactly {-1, 0}.
  if (v == -1) return 1;
  return bitsForUnsigned(static_cast<uint64_t>(~v)) + 1;
}

} // namespace roccc
