// roccc::cli — the one command-line parser the tools share.
//
// A tool declares its options as a list of OptionSpec rows; parseArgs
// applies argv to them (both the "--opt VALUE" and the "--opt=VALUE"
// spelling) and printHelp renders the --help listing from the same rows.
// The docs/CLI.md sync checks (tests/check_cli_docs.sh) parse that listing,
// so every option a tool accepts is one row here.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace roccc::cli {

/// One row of a tool's option table. `apply` receives the value (null for
/// a flag) and returns false on a bad one, optionally saying why in
/// `error`; parseArgs then names the option.
struct OptionSpec {
  const char* name;
  const char* valueName; ///< null for flags; shown in --help
  const char* help;      ///< one-line --help description
  std::function<bool(const char* value, std::string& error)> apply;
};

/// Applies argv[1..] to `specs` in order. Arguments that do not start with
/// '-' are appended to `positional`. False, with a message in `error`, on
/// an unknown option, a missing value, a value given to a flag, or a value
/// `apply` rejects.
bool parseArgs(int argc, char** argv, std::span<const OptionSpec> specs,
               std::vector<std::string>& positional, std::string& error);

/// Prints `header`, one "  NAME VALUE  help" line per spec (help text in
/// column `column` + 3), then `footer`.
void printHelp(std::string_view header, std::span<const OptionSpec> specs,
               std::string_view footer, int column = 22);

/// Strict base-10 integer: the whole of `text`, within [min, max].
bool parseInt(std::string_view text, int64_t& out,
              int64_t min = std::numeric_limits<int64_t>::min(),
              int64_t max = std::numeric_limits<int64_t>::max());

/// Strict unsigned 64-bit integer: decimal digits (leading zeros mean
/// nothing, so 010 is ten), or hex digits after 0x. No sign, no blanks.
bool parseSeed(std::string_view text, uint64_t& out);

/// Apply functions for the common option shapes.
std::function<bool(const char*, std::string&)> setString(std::string& target);
std::function<bool(const char*, std::string&)> setFlag(bool& target);

template <class Int>
std::function<bool(const char*, std::string&)> setInt(
    Int& target, int64_t min, int64_t max = std::numeric_limits<Int>::max()) {
  return [&target, min, max](const char* v, std::string&) {
    int64_t n = 0;
    if (!parseInt(v, n, min, max)) return false;
    target = static_cast<Int>(n);
    return true;
  };
}

} // namespace roccc::cli
