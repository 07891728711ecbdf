#include "support/cli.hpp"

#include <charconv>
#include <cstdio>

namespace roccc::cli {

bool parseArgs(int argc, char** argv, std::span<const OptionSpec> specs,
               std::vector<std::string>& positional, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      positional.push_back(std::move(arg));
      continue;
    }
    // Split the "--opt=value" spelling.
    std::string inlineValue;
    bool hasInlineValue = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos && arg.rfind("--", 0) == 0) {
      inlineValue = arg.substr(eq + 1);
      arg.resize(eq);
      hasInlineValue = true;
    }
    const OptionSpec* spec = nullptr;
    for (const OptionSpec& s : specs) {
      if (arg == s.name) {
        spec = &s;
        break;
      }
    }
    if (!spec) {
      error = "unknown option '" + arg + "'";
      return false;
    }
    const char* value = nullptr;
    if (spec->valueName) {
      if (hasInlineValue) {
        value = inlineValue.c_str();
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        error = "option '" + arg + "' needs a value";
        return false;
      }
    } else if (hasInlineValue) {
      error = "option '" + arg + "' takes no value";
      return false;
    }
    std::string why;
    if (!spec->apply(value, why)) {
      error = value ? "invalid value '" + std::string(value) + "' for " + arg
                    : "option '" + arg + "' rejected";
      if (!why.empty()) error += ": " + why;
      return false;
    }
  }
  return true;
}

void printHelp(std::string_view header, std::span<const OptionSpec> specs,
               std::string_view footer, int column) {
  std::fwrite(header.data(), 1, header.size(), stdout);
  for (const OptionSpec& s : specs) {
    std::string left = s.name;
    if (s.valueName) {
      left += ' ';
      left += s.valueName;
    }
    std::printf("  %-*s %s\n", column, left.c_str(), s.help);
  }
  std::fwrite(footer.data(), 1, footer.size(), stdout);
}

bool parseInt(std::string_view text, int64_t& out, int64_t min, int64_t max) {
  int64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || ptr != end || n < min || n > max) return false;
  out = n;
  return true;
}

bool parseSeed(std::string_view text, uint64_t& out) {
  int base = 10;
  if (text.starts_with("0x")) {
    text.remove_prefix(2);
    base = 16;
  }
  // from_chars takes no sign or blank for an unsigned type and reports
  // overflow, so only a whole, nonempty digit string is a seed.
  uint64_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n, base);
  if (ec != std::errc() || ptr != end) return false;
  out = n;
  return true;
}

std::function<bool(const char*, std::string&)> setString(std::string& target) {
  return [&target](const char* v, std::string&) {
    target = v;
    return true;
  };
}

std::function<bool(const char*, std::string&)> setFlag(bool& target) {
  return [&target](const char*, std::string&) {
    target = true;
    return true;
  };
}

} // namespace roccc::cli
