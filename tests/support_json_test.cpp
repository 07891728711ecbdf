// The JSON codec (src/support/json.hpp): escapeTo on the write side, the
// string scanner of json::parse on the read side, and the writer's layout
// rule and number format.
//
// Every daemon response carries the generated VHDL as one JSON string, so
// both directions share one word scanner: it tests eight bytes per step
// for a quote, a backslash or a control byte, names the flagged byte with
// a byte loop, and copies the plain runs between such bytes in bulk.
// These tests pin what must not change with that: the escaped bytes
// (against the byte-at-a-time reference below), the decoded bytes, and
// the parser's error messages and byte offsets, with special bytes placed
// on every lane of a word and in the short tail after the last word.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace roccc {
namespace {

namespace fs = std::filesystem;
using json::Value;

/// The reference escaper: one byte at a time, the short escapes for the
/// seven characters that have one, \u00XX for every other control byte,
/// everything else (including bytes >= 0x80) verbatim.
std::string referenceEscape(std::string_view s) {
  std::string out;
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Escapes `s` both ways, checks the bytes against the reference, and
/// checks that parsing the quoted form gives `s` back.
void expectCodecRoundTrip(const std::string& s, const std::string& what) {
  const std::string want = referenceEscape(s);
  std::string appended = "prefix";
  json::escapeTo(s, appended);
  EXPECT_EQ(appended, "prefix" + want) << what;
  const std::string doc = Value::string(s).dump();
  EXPECT_EQ(doc, "\"" + want + "\"") << what;
  Value back;
  std::string error;
  ASSERT_TRUE(json::parse(doc, back, error)) << what << ": " << error;
  EXPECT_EQ(back.asString(), s) << what;
}

std::string parseError(std::string_view text) {
  Value v;
  std::string error;
  EXPECT_FALSE(json::parse(text, v, error)) << text;
  return error;
}

TEST(JsonCodec, EveryByteAtStartMiddleAndEndOfARun) {
  for (int b = 0; b < 256; ++b) {
    const std::string c(1, static_cast<char>(b));
    const std::string tag = "byte " + std::to_string(b);
    expectCodecRoundTrip(c, tag + " alone");
    expectCodecRoundTrip(c + "plain run", tag + " at start");
    expectCodecRoundTrip("plain" + c + "run", tag + " in the middle");
    expectCodecRoundTrip("plain run" + c, tag + " at end");
  }
  // The scanner tests eight bytes per step: put each byte class edge at
  // every offset of three words, so it lands on each lane of a whole word
  // and in the byte-at-a-time tail of shorter runs.
  const std::string run24 = "abcdefghijklmnopqrstuvwx";
  for (const int b :
       {0x00, 0x1f, 0x20, 0x21, int{'"'}, int{'#'}, int{'\\'}, int{']'}, 0x7f, 0x80, 0xff}) {
    for (size_t at = 0; at < run24.size(); ++at) {
      std::string s = run24;
      s[at] = static_cast<char>(b);
      const std::string tag = "byte " + std::to_string(b) + " at offset " + std::to_string(at);
      expectCodecRoundTrip(s, tag);
      expectCodecRoundTrip(s.substr(0, at + 1), tag + ", run ends there");
    }
  }
  // Two special bytes in one word, at every pair of lanes.
  for (size_t x = 0; x < 8; ++x) {
    for (size_t y = x + 1; y < 8; ++y) {
      std::string s = run24;
      s[8 + x] = '"';
      s[8 + y] = '\x01';
      expectCodecRoundTrip(s, "quote at lane " + std::to_string(x) + ", control at lane " +
                                  std::to_string(y));
      s[8 + x] = '\\';
      s[8 + y] = '\\';
      expectCodecRoundTrip(s, "backslashes at lanes " + std::to_string(x) + " and " +
                                  std::to_string(y));
    }
  }
}

TEST(JsonCodec, AdjacentEscapes) {
  expectCodecRoundTrip("\"\\\n\r\t\b\f\x01\x1f", "every escape kind, back to back");
  expectCodecRoundTrip("\"\"\"", "quotes only");
  expectCodecRoundTrip("\\\\", "backslashes only");
  expectCodecRoundTrip("a\"b\\c\nd\x02" "e", "escapes between single plain bytes");
  for (int a = 0; a < 0x21; ++a) {
    for (int b = 0; b < 0x21; ++b) {
      std::string s = "x";
      s += static_cast<char>(a);
      s += static_cast<char>(b);
      s += "y";
      expectCodecRoundTrip(s, "pair " + std::to_string(a) + "," + std::to_string(b));
    }
  }
}

TEST(JsonCodec, OneMegabyteRun) {
  std::string s;
  s.reserve(1 << 20);
  for (size_t i = 0; s.size() < (1u << 20); ++i) s += static_cast<char>('a' + i % 26);
  expectCodecRoundTrip(s, "1 MB plain");
  s[s.size() / 2] = '\n';
  s.back() = '"';
  s.front() = '\x01';
  expectCodecRoundTrip(s, "1 MB with escapes at start, middle and end");
}

TEST(JsonCodec, EmptyString) {
  expectCodecRoundTrip("", "empty");
  Value v;
  std::string error;
  ASSERT_TRUE(json::parse("\"\"", v, error)) << error;
  EXPECT_EQ(v.asString(), "");
}

TEST(JsonCodec, SurrogatePairsInsideRuns) {
  Value v;
  std::string error;
  ASSERT_TRUE(json::parse("\"\\ud83d\\ude00\"", v, error)) << error;
  EXPECT_EQ(v.asString(), "\xf0\x9f\x98\x80");
  ASSERT_TRUE(json::parse("\"head \\ud83d\\ude00 mid \\uD834\\uDD1E tail\"", v, error)) << error;
  EXPECT_EQ(v.asString(), "head \xf0\x9f\x98\x80 mid \xf0\x9d\x84\x9e tail");
  ASSERT_TRUE(json::parse("\"\\u00e9\\u0041\\u20ac\"", v, error)) << error;
  EXPECT_EQ(v.asString(), "\xc3\xa9" "A" "\xe2\x82\xac");
  // Raw UTF-8 passes through untouched in both directions.
  expectCodecRoundTrip("caf\xc3\xa9 \xf0\x9f\x98\x80", "raw UTF-8");
}

TEST(JsonCodec, ErrorMessagesAndByteOffsets) {
  // Values pinned on the byte-at-a-time scanner.
  EXPECT_EQ(parseError("\"ab\x01" "c\""), "raw control character in string at byte 3");
  EXPECT_EQ(parseError("\"\x1f\""), "raw control character in string at byte 1");
  EXPECT_EQ(parseError("\"abc\ndef\""), "raw control character in string at byte 4");
  EXPECT_EQ(parseError("\"abc"), "unterminated string at byte 4");
  EXPECT_EQ(parseError("\""), "unterminated string at byte 1");
  EXPECT_EQ(parseError("\"" + std::string(1000, 'a')), "unterminated string at byte 1001");
  EXPECT_EQ(parseError("{\"key"), "unterminated string at byte 5");
  EXPECT_EQ(parseError("[\"a\\n\\\"b"), "unterminated string at byte 8");
  EXPECT_EQ(parseError("\"ab\\"), "truncated escape at byte 4");
  EXPECT_EQ(parseError("\"ab\\x\""), "bad escape character at byte 5");
  EXPECT_EQ(parseError("\"\\u12zz\""), "bad hex digit in \\u escape at byte 3");
  EXPECT_EQ(parseError("\"\\u12\""), "truncated \\u escape at byte 3");
  EXPECT_EQ(parseError("\"x\\ud83d\""), "unpaired surrogate at byte 8");
  EXPECT_EQ(parseError("\"\\ude00\""), "unpaired surrogate at byte 7");
  EXPECT_EQ(parseError("\"\\ud83d\\u0041\""), "invalid low surrogate at byte 13");
  EXPECT_EQ(parseError("[\"ok\",\"bad\x02\"]"), "raw control character in string at byte 10");
  // A raw control byte at every offset of three words, after a run of
  // plain bytes and after an escape: the offset is the byte's own.
  for (size_t at = 0; at < 24; ++at) {
    for (const char b : {'\x00', '\n', '\x1f'}) {
      std::string body(24, 'a');
      body[at] = b;
      const std::string want = "raw control character in string at byte ";
      EXPECT_EQ(parseError("\"" + body + "\""), want + std::to_string(1 + at));
      EXPECT_EQ(parseError("[\"\\t" + body + "\"]"), want + std::to_string(4 + at));
    }
  }
}

/// Every checked-in golden VHDL file (Table 1 and corpus).
std::vector<fs::path> goldenFiles() {
  std::vector<fs::path> files;
  for (const char* sub : {"", "corpus"}) {
    const fs::path dir = fs::path(ROCCC_GOLDEN_DIR) / sub;
    for (const auto& e : fs::directory_iterator(dir)) {
      if (e.path().extension() == ".vhd") files.push_back(e.path());
    }
  }
  return files;
}

TEST(JsonCodec, GoldenVhdlEscapesLikeTheReference) {
  const auto files = goldenFiles();
  ASSERT_GE(files.size(), 22u);
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    expectCodecRoundTrip(buf.str(), path.filename().string());
  }
}

// --- the writer: one layout rule, one number format --------------------------

TEST(JsonWriter, ContainersOfScalarsStayOnOneLine) {
  const Value doc = Value::object(
      {{"a", 1}, {"b", Value::array({true, "x", Value()})}, {"c", Value::object()},
       {"d", Value::array()}, {"e", Value::object({{"f", 2}, {"g", Value::array()}})}});
  EXPECT_EQ(doc.pretty(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"b\": [true, \"x\", null],\n"
            "  \"c\": {},\n"
            "  \"d\": [],\n"
            "  \"e\": {\"f\": 2, \"g\": []}\n"
            "}\n");
  EXPECT_EQ(doc.dump(), "{\"a\":1,\"b\":[true,\"x\",null],\"c\":{},\"d\":[],"
                        "\"e\":{\"f\":2,\"g\":[]}}");
  EXPECT_EQ(Value::array({1, 2}).pretty(), "[1, 2]\n");
  EXPECT_EQ(Value::array({Value::array({1}), 2}).pretty(), "[\n  [1],\n  2\n]\n");
}

TEST(JsonWriter, DoublesPrintShortestAndReadBackExactly) {
  for (const double d : {3.1234567, 0.1, 1.0 / 3.0, 227.0663033605813, 1e-7, -2.5e300,
                         5e-324, 0.30000000000000004}) {
    const std::string text = Value(d).dump();
    Value back;
    std::string error;
    ASSERT_TRUE(json::parse(text, back, error)) << text << ": " << error;
    EXPECT_EQ(back.asDouble(), d) << text;
    EXPECT_EQ(Value(d).pretty(), text + "\n");
  }
  EXPECT_EQ(Value(3.1234567).dump(), "3.1234567");
  EXPECT_EQ(Value(0.1).dump(), "0.1");
  EXPECT_EQ(Value(4.0).dump(), "4");
  EXPECT_EQ(Value(-0.0).dump(), "0");
  // JSON cannot spell these.
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
  EXPECT_EQ(Value(-std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(JsonWriter, EveryIntegerTypeIsExact) {
  EXPECT_EQ(Value(std::numeric_limits<int64_t>::min()).dump(), "-9223372036854775808");
  EXPECT_EQ(Value(std::numeric_limits<uint64_t>::max()).dump(), "18446744073709551615");
  EXPECT_FALSE(Value(std::numeric_limits<uint64_t>::max()).isIntegral());
  EXPECT_EQ(Value(uint64_t{1} << 63).dump(), "9223372036854775808");
  EXPECT_EQ(Value(uint64_t{42}).asInt(), 42);
  EXPECT_EQ(Value(size_t{7}).dump(), "7");
  EXPECT_EQ(Value(int8_t{-3}).dump(), "-3");
  EXPECT_TRUE(Value(true).isBool());
  EXPECT_TRUE(Value("text").isString());
}

} // namespace
} // namespace roccc
