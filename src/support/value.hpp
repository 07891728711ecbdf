// Fixed-width two's-complement value arithmetic.
//
// Both the software golden model (src/interp) and the hardware simulator
// (src/rtl) compute on the same Value type so that "the soft nodes, by
// themselves, will have the same behavior on a CPU compared with the whole
// data path on a FPGA" (paper section 4.2.2) is checkable bit-for-bit.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

namespace roccc {

/// A scalar type in the ROCCC C subset: a signed or unsigned integer of
/// 1..64 bits. The compiler front end restricts user-visible types to at
/// most 32 bits (paper section 4.2.4); wider widths exist internally for
/// intermediate products during analysis.
struct ScalarType {
  int width = 32;       ///< Number of bits, 1..64.
  bool isSigned = true; ///< Two's-complement when true.

  friend bool operator==(const ScalarType&, const ScalarType&) = default;

  /// Canonical C 'int' (the promotion target of the subset).
  static ScalarType intTy() { return {32, true}; }
  static ScalarType uintTy() { return {32, false}; }
  static ScalarType boolTy() { return {1, false}; }
  static ScalarType make(int width, bool isSigned) { return {width, isSigned}; }

  /// Smallest/largest representable value.
  int64_t minValue() const;
  int64_t maxValue() const;

  /// Renders e.g. "int16" / "uint12".
  std::string str() const;
};

/// A value of a ScalarType. Bits are stored zero-extended in a uint64_t and
/// always masked to `type.width`; signed interpretation happens on read.
class Value {
 public:
  Value() = default;
  Value(ScalarType type, uint64_t rawBits) : type_(type), bits_(mask(rawBits, type.width)) {}

  /// Builds a value from a signed quantity, wrapping modulo 2^width
  /// (hardware truncation semantics — identical to C conversion to a
  /// narrower unsigned type, and implementation-defined-but-universal
  /// wrapping for signed).
  static Value fromInt(ScalarType type, int64_t v) { return Value(type, static_cast<uint64_t>(v)); }

  /// 32-bit signed literal convenience (C 'int').
  static Value ofInt(int64_t v) { return fromInt(ScalarType::intTy(), v); }
  static Value ofBool(bool b) { return Value(ScalarType::boolTy(), b ? 1 : 0); }

  ScalarType type() const { return type_; }
  int width() const { return type_.width; }
  bool isSigned() const { return type_.isSigned; }

  /// Raw bits, zero-extended to 64.
  uint64_t bits() const { return bits_; }

  /// Numeric value: sign-extends if the type is signed.
  int64_t toInt() const {
    if (!type_.isSigned || type_.width == 64) return static_cast<int64_t>(bits_);
    const uint64_t signBit = uint64_t{1} << (type_.width - 1);
    if (bits_ & signBit) return static_cast<int64_t>(bits_ | ~((signBit << 1) - 1));
    return static_cast<int64_t>(bits_);
  }
  /// Numeric value as unsigned (zero-extended regardless of signedness).
  uint64_t toUnsigned() const { return bits_; }
  bool toBool() const { return bits_ != 0; }

  /// Reinterprets / resizes to `to`: truncates or extends (sign-extend when
  /// the *source* is signed — C conversion semantics): the value is first
  /// sign/zero-extended per the source type, then truncated to `to.width`.
  Value convertTo(ScalarType to) const { return Value(to, static_cast<uint64_t>(toInt())); }

  /// Extracts bit `index` (0 = LSB) as a 1-bit unsigned value.
  Value bit(int index) const;
  /// Extracts bits [lo .. lo+width-1] as an unsigned value of that width.
  Value slice(int lo, int sliceWidth) const;

  std::string str() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.type_ == b.type_ && a.bits_ == b.bits_;
  }

  static uint64_t mask(uint64_t raw, int width) {
    assert(width >= 1 && width <= 64);
    return width == 64 ? raw : raw & ((uint64_t{1} << width) - 1);
  }

 private:
  ScalarType type_{32, true};
  uint64_t bits_ = 0;
};

/// The arithmetic used everywhere: each operation takes operand values,
/// computes at the given result type, and wraps modulo 2^width. Division by
/// zero yields all-ones quotient and the dividend as remainder (the
/// convention of hardware restoring dividers; the interpreter and the RTL
/// simulator agree on it so cosimulation stays bit-exact).
namespace ops {

Value add(const Value& a, const Value& b, ScalarType rt);
Value sub(const Value& a, const Value& b, ScalarType rt);
Value mul(const Value& a, const Value& b, ScalarType rt);
Value divide(const Value& a, const Value& b, ScalarType rt);
Value rem(const Value& a, const Value& b, ScalarType rt);
Value neg(const Value& a, ScalarType rt);

Value bitAnd(const Value& a, const Value& b, ScalarType rt);
Value bitOr(const Value& a, const Value& b, ScalarType rt);
Value bitXor(const Value& a, const Value& b, ScalarType rt);
Value bitNot(const Value& a, ScalarType rt);

/// Shift amounts are taken modulo nothing: shifting by >= width yields 0
/// (or the sign fill for arithmetic right shift), matching a barrel shifter.
Value shl(const Value& a, const Value& sh, ScalarType rt);
Value shr(const Value& a, const Value& sh, ScalarType rt); // arithmetic iff a is signed

/// Comparisons look at the operands' *common* signedness: if either side is
/// unsigned-32, the compare is unsigned (C usual arithmetic conversions);
/// result is 1-bit.
Value cmpEq(const Value& a, const Value& b);
Value cmpNe(const Value& a, const Value& b);
Value cmpLt(const Value& a, const Value& b);
Value cmpLe(const Value& a, const Value& b);
Value cmpGt(const Value& a, const Value& b);
Value cmpGe(const Value& a, const Value& b);

/// 2:1 multiplexer: sel != 0 picks `a` (the "true" input), else `b`.
Value mux(const Value& sel, const Value& a, const Value& b, ScalarType rt);

} // namespace ops

/// Number of bits needed to represent `v` as an unsigned quantity (>=1).
int bitsForUnsigned(uint64_t v);
/// Number of bits needed to represent `v` in two's complement (>=1).
int bitsForSigned(int64_t v);

} // namespace roccc
