#include <gtest/gtest.h>

#include "support/range.hpp"
#include "support/value.hpp"

namespace roccc {
namespace {

TEST(ScalarType, MinMax) {
  EXPECT_EQ(ScalarType::make(8, true).minValue(), -128);
  EXPECT_EQ(ScalarType::make(8, true).maxValue(), 127);
  EXPECT_EQ(ScalarType::make(8, false).minValue(), 0);
  EXPECT_EQ(ScalarType::make(8, false).maxValue(), 255);
  EXPECT_EQ(ScalarType::make(1, false).maxValue(), 1);
  EXPECT_EQ(ScalarType::intTy().minValue(), INT32_MIN);
  EXPECT_EQ(ScalarType::intTy().maxValue(), INT32_MAX);
}

TEST(Value, SignExtension) {
  const Value v(ScalarType::make(8, true), 0xFF);
  EXPECT_EQ(v.toInt(), -1);
  EXPECT_EQ(v.toUnsigned(), 0xFFu);
  const Value u(ScalarType::make(8, false), 0xFF);
  EXPECT_EQ(u.toInt(), 255);
}

TEST(Value, WrapsToWidth) {
  const Value v = Value::fromInt(ScalarType::make(4, false), 0x37);
  EXPECT_EQ(v.toUnsigned(), 0x7u);
  const Value s = Value::fromInt(ScalarType::make(4, true), 9); // 1001 -> -7
  EXPECT_EQ(s.toInt(), -7);
}

TEST(Value, ConvertSignExtendsFromSignedSource) {
  const Value v = Value::fromInt(ScalarType::make(8, true), -2);
  const Value w = v.convertTo(ScalarType::make(16, true));
  EXPECT_EQ(w.toInt(), -2);
  const Value u = Value(ScalarType::make(8, false), 0xFE).convertTo(ScalarType::make(16, true));
  EXPECT_EQ(u.toInt(), 0xFE);
}

TEST(Value, BitAndSlice) {
  const Value v(ScalarType::make(8, false), 0b10110100);
  EXPECT_EQ(v.bit(2).toUnsigned(), 1u);
  EXPECT_EQ(v.bit(0).toUnsigned(), 0u);
  EXPECT_EQ(v.slice(4, 4).toUnsigned(), 0b1011u);
}

TEST(ValueOps, AddWrap32) {
  const Value a = Value::ofInt(INT32_MAX);
  const Value b = Value::ofInt(1);
  EXPECT_EQ(ops::add(a, b, ScalarType::intTy()).toInt(), INT32_MIN);
}

TEST(ValueOps, MulNarrowResult) {
  const Value a = Value::fromInt(ScalarType::make(8, true), -3);
  const Value b = Value::fromInt(ScalarType::make(8, true), 5);
  EXPECT_EQ(ops::mul(a, b, ScalarType::intTy()).toInt(), -15);
}

TEST(ValueOps, DivisionByZeroConvention) {
  const Value a = Value::fromInt(ScalarType::make(8, false), 42);
  const Value z = Value::fromInt(ScalarType::make(8, false), 0);
  EXPECT_EQ(ops::divide(a, z, ScalarType::make(8, false)).toUnsigned(), 0xFFu);
  EXPECT_EQ(ops::rem(a, z, ScalarType::make(8, false)).toUnsigned(), 42u);
}

TEST(ValueOps, ShiftSemantics) {
  const Value a = Value::ofInt(-8);
  EXPECT_EQ(ops::shr(a, Value::ofInt(1), ScalarType::intTy()).toInt(), -4); // arithmetic
  const Value u = Value(ScalarType::uintTy(), 0x80000000u);
  EXPECT_EQ(ops::shr(u, Value::ofInt(31), ScalarType::uintTy()).toUnsigned(), 1u);
  EXPECT_EQ(ops::shl(Value::ofInt(1), Value::ofInt(40), ScalarType::intTy()).toInt(), 0);
}

TEST(ValueOps, UnsignedComparisonRule) {
  const Value a = Value::ofInt(-1);
  const Value b = Value(ScalarType::uintTy(), 1);
  // -1 compared against unsigned: converts to 0xFFFFFFFF, so a > b.
  EXPECT_EQ(ops::cmpLt(a, b).toBool(), false);
  EXPECT_EQ(ops::cmpGt(a, b).toBool(), true);
  // Signed-signed stays signed.
  EXPECT_TRUE(ops::cmpLt(Value::ofInt(-1), Value::ofInt(1)).toBool());
}

TEST(ValueOps, Mux) {
  const Value t = Value::ofInt(10), f = Value::ofInt(20);
  EXPECT_EQ(ops::mux(Value::ofBool(true), t, f, ScalarType::intTy()).toInt(), 10);
  EXPECT_EQ(ops::mux(Value::ofBool(false), t, f, ScalarType::intTy()).toInt(), 20);
}

TEST(BitsFor, Widths) {
  EXPECT_EQ(bitsForUnsigned(0), 1);
  EXPECT_EQ(bitsForUnsigned(1), 1);
  EXPECT_EQ(bitsForUnsigned(2), 2);
  EXPECT_EQ(bitsForUnsigned(255), 8);
  EXPECT_EQ(bitsForUnsigned(256), 9);
  EXPECT_EQ(bitsForSigned(0), 2);
  EXPECT_EQ(bitsForSigned(-1), 1);
  EXPECT_EQ(bitsForSigned(-128), 8);
  EXPECT_EQ(bitsForSigned(127), 8);
  EXPECT_EQ(bitsForSigned(-129), 9);
}

TEST(ValueRange, OfTypeAndWidth) {
  const ValueRange r = ValueRange::ofType(ScalarType::make(8, true));
  EXPECT_EQ(static_cast<int64_t>(r.lo()), -128);
  EXPECT_EQ(static_cast<int64_t>(r.hi()), 127);
  bool sign = false;
  EXPECT_EQ(r.requiredWidth(&sign), 8);
  EXPECT_TRUE(sign);
  const ValueRange u(0, 255);
  EXPECT_EQ(u.requiredWidth(&sign), 8);
  EXPECT_FALSE(sign);
}

TEST(ValueRange, TransferFunctions) {
  const ValueRange a(0, 255), b(0, 255);
  const ValueRange sum = a.add(b);
  EXPECT_EQ(static_cast<int64_t>(sum.hi()), 510);
  EXPECT_EQ(sum.requiredWidth(), 9);
  const ValueRange prod = a.mul(b);
  EXPECT_EQ(static_cast<int64_t>(prod.hi()), 255 * 255);
  EXPECT_EQ(prod.requiredWidth(), 16);
  const ValueRange diff = a.sub(b);
  EXPECT_EQ(static_cast<int64_t>(diff.lo()), -255);
  EXPECT_EQ(diff.requiredWidth(), 9);
}

TEST(ValueRange, MulCorners) {
  const ValueRange a(-3, 2), b(-5, 7);
  const ValueRange p = a.mul(b);
  EXPECT_EQ(static_cast<int64_t>(p.lo()), -21);
  EXPECT_EQ(static_cast<int64_t>(p.hi()), 15);
}

TEST(ValueRange, ShiftsAndJoin) {
  const ValueRange a(1, 4);
  const ValueRange s = a.shl(ValueRange(0, 3));
  EXPECT_EQ(static_cast<int64_t>(s.hi()), 32);
  const ValueRange j = ValueRange(0, 1).join(ValueRange(-4, 0));
  EXPECT_EQ(static_cast<int64_t>(j.lo()), -4);
  EXPECT_EQ(static_cast<int64_t>(j.hi()), 1);
}

TEST(ValueRange, ConvertCollapsesOnOverflow) {
  const ValueRange big(0, 1 << 20);
  const ValueRange c = big.convertTo(ScalarType::make(8, false));
  EXPECT_EQ(c, ValueRange::ofType(ScalarType::make(8, false)));
  const ValueRange fits(0, 200);
  EXPECT_EQ(fits.convertTo(ScalarType::make(8, false)), fits);
}

// Property sweep: conversion round-trips for every width pair where the
// value fits.
class ValueConvertSweep : public ::testing::TestWithParam<int> {};

TEST_P(ValueConvertSweep, RoundTripWithinRange) {
  const int w = GetParam();
  const ScalarType t = ScalarType::make(w, true);
  for (int64_t v = t.minValue(); v <= t.maxValue(); v += std::max<int64_t>(1, (t.maxValue() - t.minValue()) / 257)) {
    const Value x = Value::fromInt(t, v);
    EXPECT_EQ(x.toInt(), v);
    EXPECT_EQ(x.convertTo(ScalarType::intTy()).toInt(), v);
    EXPECT_EQ(x.convertTo(ScalarType::intTy()).convertTo(t).toInt(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ValueConvertSweep, ::testing::Values(1, 2, 3, 4, 7, 8, 12, 16, 19, 24, 31, 32));

} // namespace
} // namespace roccc
