#include "support/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "support/strings.hpp"

namespace roccc::json {

Value::Value(double d) : kind_(Kind::Number), number_(d) {
  // Integral doubles inside the exact range serialize as integers.
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    int_ = static_cast<int64_t>(d);
    isInt_ = true;
  }
}

Value Value::array(std::initializer_list<Value> items) {
  Value v;
  v.kind_ = Kind::Array;
  v.items_.assign(items);
  return v;
}

Value Value::object(std::initializer_list<Member> members) {
  Value v;
  v.kind_ = Kind::Object;
  v.members_.assign(members);
  return v;
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Value::push(Value v) { items_.push_back(std::move(v)); }

void Value::set(std::string_view key, Value v) {
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(v));
}

namespace {

/// The offset of the first byte at or after `from` that a JSON string
/// must treat specially: '"', '\\' or a control byte below 0x20; s.size()
/// when there is none. Both directions of the codec share it.
///
/// It tests eight bytes per step. A word is loaded with memcpy, so there
/// is no alignment or aliasing question and no read past the view. The
/// has-less test ((w - n*ones) & ~w & highs, nonzero iff a byte of w is
/// below n, for n <= 0x80) flags a control byte directly, and a quote or
/// backslash as a zero byte of w XOR its broadcast. Inside the flagged
/// word, and in the last few bytes, the byte loop names the byte, so the
/// result does not depend on endianness.
size_t findSpecial(std::string_view s, size_t from) {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHighs = 0x8080808080808080ull;
  auto hasLess = [](uint64_t w, uint64_t n) { return (w - kOnes * n) & ~w & kHighs; };
  size_t i = from;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, sizeof w);
    if (hasLess(w, 0x20) | hasLess(w ^ (kOnes * '"'), 1) | hasLess(w ^ (kOnes * '\\'), 1)) break;
  }
  for (; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c < 0x20 || c == '"' || c == '\\') return i;
  }
  return s.size();
}

} // namespace

void escapeTo(std::string_view s, std::string& out) {
  out.reserve(out.size() + s.size() + 2);
  size_t run = 0; // start of the pending run of verbatim bytes
  for (size_t i = findSpecial(s, 0); i < s.size(); i = findSpecial(s, run)) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s, run, s.size() - run);
}

void Value::writeTo(std::string& out, int depth) const {
  switch (kind_) {
    case Kind::Null: out += "null"; return;
    case Kind::Bool: out += bool_ ? "true" : "false"; return;
    case Kind::Number: {
      char buf[32]; // the longest shortest-form double is 24 characters
      char* end;
      if (isInt_) {
        end = std::to_chars(buf, buf + sizeof buf, int_).ptr;
      } else if (bigUnsigned_) {
        end = std::to_chars(buf, buf + sizeof buf, static_cast<uint64_t>(int_)).ptr;
      } else if (std::isfinite(number_)) {
        end = std::to_chars(buf, buf + sizeof buf, number_).ptr;
      } else {
        out += "null";
        return;
      }
      out.append(buf, end);
      return;
    }
    case Kind::String:
      out += '"';
      escapeTo(string_, out);
      out += '"';
      return;
    case Kind::Array:
    case Kind::Object: break;
  }
  const bool isObject = kind_ == Kind::Object;
  const size_t size = isObject ? members_.size() : items_.size();
  auto element = [&](size_t i) -> const Value& {
    return isObject ? members_[i].second : items_[i];
  };
  // The report form gives each element its own line once any element is
  // a non-empty container.
  bool multiline = false;
  for (size_t i = 0; depth >= 0 && i < size && !multiline; ++i) {
    multiline = !element(i).items_.empty() || !element(i).members_.empty();
  }
  out += isObject ? '{' : '[';
  for (size_t i = 0; i < size; ++i) {
    if (i > 0) out += depth < 0 || multiline ? "," : ", ";
    if (multiline) {
      out += '\n';
      out.append(2 * static_cast<size_t>(depth + 1), ' ');
    }
    if (isObject) {
      out += '"';
      escapeTo(members_[i].first, out);
      out += depth < 0 ? "\":" : "\": ";
    }
    element(i).writeTo(out, depth < 0 ? depth : depth + 1);
  }
  if (multiline) {
    out += '\n';
    out.append(2 * static_cast<size_t>(depth), ' ');
  }
  out += isObject ? '}' : ']';
}

namespace {

/// Recursive-descent RFC 8259 parser over a string_view. Strict: every
/// deviation is an error with a byte offset, and nesting is capped.
class Parser {
 public:
  Parser(std::string_view text, int maxDepth) : text_(text), maxDepth_(maxDepth) {}

  bool run(Value& out, std::string& error) {
    skipWs();
    if (!parseValue(out, 0)) {
      error = fmt("%0 at byte %1", error_, pos_);
      return false;
    }
    skipWs();
    if (pos_ != text_.size()) {
      error = fmt("trailing bytes after document at byte %0", pos_);
      return false;
    }
    return true;
  }

 private:
  bool fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool parseValue(Value& out, int depth) {
    if (depth > maxDepth_) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n': return literal("null") && (out = Value::null(), true);
      case 't': return literal("true") && (out = Value::boolean(true), true);
      case 'f': return literal("false") && (out = Value::boolean(false), true);
      case '"': {
        std::string s;
        if (!parseString(s)) return false;
        out = Value::string(std::move(s));
        return true;
      }
      case '[': return parseArray(out, depth);
      case '{': return parseObject(out, depth);
      default: return parseNumber(out);
    }
  }

  bool parseArray(Value& out, int depth) {
    ++pos_; // '['
    out = Value::array();
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value item;
      skipWs();
      if (!parseValue(item, depth + 1)) return false;
      out.push(std::move(item));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseObject(Value& out, int depth) {
    ++pos_; // '{'
    out = Value::object();
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key string");
      std::string key;
      if (!parseString(key)) return false;
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':' after object key");
      ++pos_;
      skipWs();
      Value member;
      if (!parseValue(member, depth + 1)) return false;
      out.set(key, std::move(member));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool hex4(uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      uint32_t digit;
      if (c >= '0' && c <= '9') digit = static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') digit = static_cast<uint32_t>(c - 'A' + 10);
      else return fail("bad hex digit in \\u escape");
      out = out * 16 + digit;
    }
    pos_ += 4;
    return true;
  }

  void appendUtf8(std::string& s, uint32_t cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parseString(std::string& out) {
    ++pos_; // opening quote
    out.clear();
    while (true) {
      // Copy the whole run of plain bytes up to the next quote, backslash
      // or control byte in one append.
      const size_t stop = findSpecial(text_, pos_);
      out.append(text_, pos_, stop - pos_);
      pos_ = stop;
      if (pos_ >= text_.size()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("raw control character in string");
      ++pos_; // backslash
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          uint32_t cp;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) { // leading surrogate
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            uint32_t low;
            if (!hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default: return fail("bad escape character");
      }
    }
  }

  bool parseNumber(Value& out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      pos_ = start;
      return fail("invalid value");
    }
    // Leading zeros are forbidden ("01" is two documents, i.e. an error).
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() && text_[pos_ + 1] >= '0' &&
        text_[pos_ + 1] <= '9') {
      return fail("leading zero in number");
    }
    bool integral = true;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string lit(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long i = std::strtoll(lit.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') {
        out = Value::number(static_cast<int64_t>(i));
        return true;
      }
    }
    out = Value::number(std::strtod(lit.c_str(), nullptr));
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int maxDepth_;
  std::string error_;
};

} // namespace

std::string Value::dump() const {
  std::string out;
  writeTo(out, -1);
  return out;
}

std::string Value::pretty() const {
  std::string out;
  writeTo(out, 0);
  out += '\n';
  return out;
}

bool parse(std::string_view text, Value& out, std::string& error, int maxDepth) {
  Parser p(text, maxDepth);
  return p.run(out, error);
}

} // namespace roccc::json
