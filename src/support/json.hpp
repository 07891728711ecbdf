// Strict JSON: the value model, the parser, and the one writer of every
// JSON document the library and tools produce — the roccc-ccd wire
// protocol (src/roccc/service_net.hpp), the compile cache's disk entries
// (src/roccc/cache.cpp) and the reports (roccc-cc --json and --stats-json,
// roccc-verify --json, the roccc-sweep-v1 report). No other file decides
// JSON layout, separators, escaping or number text.
//
// Two text forms share the escaping and the number format:
//  - dump() is the compact wire form: one line, "," and ":" separators.
//    The daemon speaks line-delimited JSON, so no form ever emits a raw
//    newline inside a string (all control characters are escaped).
//  - pretty() is the report form. A container prints on one line when
//    none of its elements is a non-empty array or object; otherwise it
//    prints one element per line at a two-space indent. Separators are
//    ", " and ": ", empty containers print as [] and {}, and the text
//    ends with one newline.
//
// Numbers: an integral value within int64 (and any uint64) prints as its
// decimal digits; every other double prints as the shortest text that
// reads back as the same double (std::to_chars), so a report records
// exactly the value a compile used. NaN and the infinities, which JSON
// cannot spell, print as null.
//
// The parser is strict RFC 8259: no trailing commas, no comments, no
// unquoted keys, and a recursion-depth cap so a hostile frame cannot
// overflow the stack. Numbers are stored as double plus the original
// integer when the literal was integral and fits int64, so protocol
// counters round-trip exactly. Object member order is preserved
// (insertion order), which keeps every serialized document
// byte-deterministic.
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace roccc::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, Value>;

  /// Null. The converting constructors below let a document be written
  /// as its members: `Value::object({{"id", id}, {"name", name}})`.
  Value() = default;
  /// Only a real bool converts to a boolean, never a pointer.
  template <std::same_as<bool> B>
  Value(B b) : kind_(Kind::Bool), bool_(b) {}
  /// Every integer type converts exactly, unsigned 64-bit included.
  template <std::integral I>
    requires(!std::same_as<I, bool>)
  Value(I i)
      : kind_(Kind::Number), number_(static_cast<double>(i)), int_(static_cast<int64_t>(i)),
        isInt_(std::is_signed_v<I> || static_cast<uint64_t>(i) <= uint64_t{INT64_MAX}),
        bigUnsigned_(!isInt_) {}
  Value(double d);
  Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}

  /// Named spellings of the constructors, and the two containers.
  static Value null() { return Value(); }
  static Value boolean(bool b) { return Value(b); }
  static Value number(double d) { return Value(d); }
  static Value number(int64_t i) { return Value(i); }
  static Value string(std::string s) { return Value(std::move(s)); }
  static Value array(std::initializer_list<Value> items = {});
  static Value object(std::initializer_list<Member> members = {});

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::Null; }
  bool isBool() const { return kind_ == Kind::Bool; }
  bool isNumber() const { return kind_ == Kind::Number; }
  bool isString() const { return kind_ == Kind::String; }
  bool isArray() const { return kind_ == Kind::Array; }
  bool isObject() const { return kind_ == Kind::Object; }

  bool asBool() const { return bool_; }
  double asDouble() const { return number_; }
  /// The integral value; truncates when the literal was fractional.
  int64_t asInt() const { return isInt_ ? int_ : static_cast<int64_t>(number_); }
  /// True when the value is integral and within int64 — such numbers
  /// serialize without a decimal point or exponent (so `1e2` reads back
  /// as the integer 100). An unsigned value past int64 is not integral in
  /// this sense, but it still serializes as its exact digits.
  bool isIntegral() const { return isInt_; }
  const std::string& asString() const { return string_; }

  /// Array elements / object members (members keep insertion order).
  const std::vector<Value>& items() const { return items_; }
  const std::vector<Member>& members() const { return members_; }

  /// Object lookup; nullptr when absent (or when this is not an object).
  const Value* find(std::string_view key) const;

  /// Array append.
  void push(Value v);
  /// Object append-or-overwrite (linear scan; protocol objects are small).
  void set(std::string_view key, Value v);

  /// The compact single-line wire form (no raw newlines anywhere).
  std::string dump() const;
  /// The indented report form (see the layout rule above), ending in one
  /// newline.
  std::string pretty() const;

 private:
  /// Serializes into `out`: the wire form when `depth` < 0, else the
  /// report form for a value nested `depth` levels deep.
  void writeTo(std::string& out, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0;
  int64_t int_ = 0;
  bool isInt_ = false;
  bool bigUnsigned_ = false; ///< a uint64 past int64; int_ holds its bits
  std::string string_;
  std::vector<Value> items_;
  std::vector<Member> members_;
};

/// Strict parse of a complete JSON document. Returns false and fills
/// `error` (with a byte offset) on any violation: trailing bytes, bad
/// escapes, truncation, or nesting beyond `maxDepth`.
bool parse(std::string_view text, Value& out, std::string& error, int maxDepth = 64);

/// Appends the JSON string-literal escaping of `s` (quotes not included)
/// to `out`. All control characters become \u00XX (or the short escapes),
/// so the output never contains a raw newline. Runs of bytes that need no
/// escape are appended whole.
void escapeTo(std::string_view s, std::string& out);

} // namespace roccc::json
