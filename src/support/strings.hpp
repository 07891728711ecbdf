// Small string / container helpers used across the compiler.
#pragma once

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace roccc {

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `s` starts with / ends with the given affix.
bool startsWith(const std::string& s, const std::string& prefix);
bool endsWith(const std::string& s, const std::string& suffix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replaceAll(std::string s, const std::string& from, const std::string& to);

namespace detail {

/// Appends `v` to `out` exactly as `std::ostream << v` would render it.
/// Strings are copied and integers go through std::to_chars; character
/// types stay characters and bool stays 1/0, as operator<< prints them.
/// Everything else (doubles, enums, user types) still uses operator<<.
template <typename T>
void appendArg(std::string& out, const T& v) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out += std::string_view(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
                       std::is_same_v<T, unsigned char>) {
    out += static_cast<char>(v);
  } else if constexpr (std::is_integral_v<T>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else {
    std::ostringstream os;
    os << v;
    out += os.str();
  }
}

} // namespace detail

/// printf-free formatting: fmt("x=%0 y=%1", a, b) substitutes %0, %1, ...
/// with each argument rendered as operator<< would. Unmatched placeholders
/// are left intact.
template <typename... Args>
std::string fmt(std::string_view pattern, const Args&... args) {
  std::string out;
  out.reserve(pattern.size() + 16 * sizeof...(Args));
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '%' && i + 1 < pattern.size() && pattern[i + 1] >= '0' && pattern[i + 1] <= '9') {
      const size_t idx = static_cast<size_t>(pattern[i + 1] - '0');
      if (idx < sizeof...(Args)) {
        size_t k = 0;
        ((k++ == idx ? detail::appendArg(out, args) : void()), ...);
        ++i;
        continue;
      }
    }
    out += pattern[i];
  }
  return out;
}

/// Writes indented lines; used by all the text emitters (AST printer, VHDL).
class IndentWriter {
 public:
  explicit IndentWriter(int spacesPerLevel = 2) : spaces_(spacesPerLevel) {}

  void indent() { ++level_; }
  void dedent() {
    if (level_ > 0) --level_;
  }

  /// Appends one full line at the current indent level.
  void line(std::string_view text);
  /// Appends a blank line.
  void blank() { out_ += '\n'; }

  const std::string& str() const { return out_; }

 private:
  int spaces_;
  int level_ = 0;
  std::string out_;
};

} // namespace roccc
