// fmt() renders every argument the way `std::ostream << arg` does: the
// emitters' golden bytes depend on it, so the cases operator<< treats
// specially (character types, bool, doubles at the default precision) and
// the placeholder edge cases are pinned here.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "support/strings.hpp"

namespace roccc {
namespace {

TEST(Fmt, CharacterTypesPrintAsCharacters) {
  EXPECT_EQ(fmt("[%0]", int8_t{-5}), std::string("[") + static_cast<char>(-5) + "]");
  EXPECT_EQ(fmt("[%0]", uint8_t{65}), "[A]");
  EXPECT_EQ(fmt("[%0]", 'x'), "[x]");
  EXPECT_EQ(fmt("[%0]", static_cast<signed char>('q')), "[q]");
}

TEST(Fmt, BoolPrintsAsDigit) {
  EXPECT_EQ(fmt("%0 %1", true, false), "1 0");
}

TEST(Fmt, IntegersAtTheirExtremes) {
  EXPECT_EQ(fmt("%0", std::numeric_limits<int64_t>::min()), "-9223372036854775808");
  EXPECT_EQ(fmt("%0", std::numeric_limits<uint64_t>::max()), "18446744073709551615");
  EXPECT_EQ(fmt("%0", size_t{42}), "42");
  EXPECT_EQ(fmt("%0 %1 %2", 0, -1, short{-300}), "0 -1 -300");
  EXPECT_EQ(fmt("%0", 4000000000u), "4000000000");
}

TEST(Fmt, DoublesUseTheStreamDefaultPrecision) {
  EXPECT_EQ(fmt("%0", 3.14159265), "3.14159");
  EXPECT_EQ(fmt("%0", 1e20), "1e+20");
  EXPECT_EQ(fmt("%0", 2.0), "2");
  EXPECT_EQ(fmt("%0", 0.5f), "0.5");
}

TEST(Fmt, PlaceholderEdgeCases) {
  EXPECT_EQ(fmt("%0-%0-%0", 7), "7-7-7");
  EXPECT_EQ(fmt("%1%0", "a", "b"), "ba");
  EXPECT_EQ(fmt("keep %9 and %1", 1), "keep %9 and %1");
  EXPECT_EQ(fmt("trailing %", 1), "trailing %");
  EXPECT_EQ(fmt("100%% %0", 5), "100%% 5");
  EXPECT_EQ(fmt("%%0", 5), "%5");
  EXPECT_EQ(fmt("no args %0"), "no args %0");
  EXPECT_EQ(fmt(""), "");
}

TEST(Fmt, StringArgumentsAppendVerbatim) {
  const std::string s = "str";
  const char* p = "ptr";
  const std::string_view v = "view";
  EXPECT_EQ(fmt("%0/%1/%2/%3", s, p, v, "lit"), "str/ptr/view/lit");
  EXPECT_EQ(fmt("<%0>", std::string()), "<>");
  // Placeholder-looking text inside an argument is not expanded again.
  EXPECT_EQ(fmt("%0 %1", "%1", "x"), "%1 x");
}

TEST(Fmt, MixedArgumentsInOneLine) {
  EXPECT_EQ(fmt("signal %0_s%1 : %2(%3 downto 0);", std::string("v3_acc"), 2, "signed", 15),
            "signal v3_acc_s2 : signed(15 downto 0);");
}

} // namespace
} // namespace roccc
