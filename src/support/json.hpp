// Minimal strict JSON: the value model, parser, and compact serializer
// behind the roccc-ccd wire protocol (src/roccc/service_net.hpp).
//
// The daemon speaks line-delimited JSON, so the serializer never emits a
// raw newline (all control characters are escaped) and the parser is
// strict RFC 8259: no trailing commas, no comments, no unquoted keys, and
// a recursion-depth cap so a hostile frame cannot overflow the stack.
// Object member order is preserved (insertion order), which keeps every
// serialized response byte-deterministic — the same property the
// roccc-sweep-v1 / --stats-json reports rely on.
//
// Numbers are stored as double plus the original integer when the literal
// was integral and fits int64 — protocol counters round-trip exactly, and
// serialization prints integers without an exponent or trailing ".0".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace roccc::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;

  static Value null() { return Value(); }
  static Value boolean(bool b);
  static Value number(double d);
  static Value number(int64_t i);
  static Value string(std::string s);
  static Value array();
  static Value object();

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
  /// as the integer 100).
  bool isIntegral() const { return isInt_; }
  const std::string& asString() const { return string_; }

  /// Array elements / object members (members keep insertion order).
  const std::vector<Value>& items() const { return items_; }
  const std::vector<std::pair<std::string, Value>>& members() const { return members_; }

  /// Object lookup; nullptr when absent (or when this is not an object).
  const Value* find(std::string_view key) const;

  /// Array append.
  void push(Value v);
  /// Object append-or-overwrite (linear scan; protocol objects are small).
  void set(std::string_view key, Value v);

  /// Compact single-line serialization (no raw newlines anywhere).
  std::string dump() const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0;
  int64_t int_ = 0;
  bool isInt_ = false;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
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

/// escapeTo into a fresh string.
std::string escape(std::string_view s);

} // namespace roccc::json
