#include "vhdl/check.hpp"

#include <cstdint>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "support/strings.hpp"

namespace roccc::vhdl {

namespace {

/// What the passes below look for in a token. Every identifier, keyword or
/// not, sorts at or after Ident; literals, numbers and other punctuation
/// are Other.
enum class Kind : uint8_t {
  Other, Dot, LParen, Colon, Semicolon, LessEq,
  Ident, Entity, Architecture, Process, If, End, Work, Is, Of, Port, Signal,
  Constant, Begin, Then, Else, Loop, Generate,
};

struct Tok {
  std::string_view text; ///< lower-cased word, literal, or single punctuation
  int line = 0;
  Kind kind = Kind::Other;
};

bool isIdent(const Tok& t) { return t.kind >= Kind::Ident; }

// C-locale character classes, as <cctype> answers them in the "C" locale.
bool isAlpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool isAlnum(char c) { return isAlpha(c) || isDigit(c); }
bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
char toLower(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c; }

/// Keyword kind of a lower-cased identifier.
Kind wordKind(std::string_view w) {
  static constexpr std::pair<std::string_view, Kind> kWords[] = {
      {"entity", Kind::Entity}, {"architecture", Kind::Architecture}, {"process", Kind::Process},
      {"if", Kind::If},         {"end", Kind::End},                   {"work", Kind::Work},
      {"is", Kind::Is},         {"of", Kind::Of},                     {"port", Kind::Port},
      {"signal", Kind::Signal}, {"constant", Kind::Constant},         {"begin", Kind::Begin},
      {"then", Kind::Then},     {"else", Kind::Else},                 {"loop", Kind::Loop},
      {"generate", Kind::Generate},
  };
  if (w.size() < 2 || w.size() > 12) return Kind::Ident;
  for (const auto& [word, kind] : kWords) {
    if (w == word) return kind;
  }
  return Kind::Ident;
}

/// Splits `buf` into tokens that are views into `buf` itself. Identifiers
/// are lower-cased where they stand, so the text is lower-cased once and
/// no token owns a copy. `buf` holds the design text plus one extra '"',
/// which closes a string literal left open at the end of the text.
std::vector<Tok> tokenize(std::string& buf) {
  const size_t n = buf.size() - 1;
  const std::string_view s(buf.data(), n);
  std::vector<Tok> out;
  out.reserve(n / 4);
  int line = 1;
  for (size_t i = 0; i < n;) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (isSpace(c)) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && s[i + 1] == '-') {
      while (i < n && s[i] != '\n') ++i;
      continue;
    }
    if (c == '"') { // string literal, closing quote included
      const size_t start = i++;
      while (i < n && s[i] != '"') ++i;
      ++i;
      out.push_back({std::string_view(buf.data() + start, i - start), line});
      continue;
    }
    if (c == '\'') { // character literal like '1'
      if (i + 2 < n && s[i + 2] == '\'') {
        out.push_back({s.substr(i, 3), line});
        i += 3;
        continue;
      }
      ++i;
      continue;
    }
    if (isAlpha(c) || c == '_') {
      const size_t start = i;
      while (i < n && (isAlnum(s[i]) || s[i] == '_')) {
        buf[i] = toLower(s[i]);
        ++i;
      }
      const std::string_view w = s.substr(start, i - start);
      out.push_back({w, line, wordKind(w)});
      continue;
    }
    if (isDigit(c)) {
      const size_t start = i;
      while (i < n && isAlnum(s[i])) ++i;
      out.push_back({s.substr(start, i - start), line});
      continue;
    }
    // multi-char operators
    const std::string_view op2 = s.substr(i, 2);
    if (op2 == "<=" || op2 == ">=" || op2 == "=>" || op2 == "/=" || op2 == ":=") {
      out.push_back({op2, line, op2 == "<=" ? Kind::LessEq : Kind::Other});
      i += 2;
      continue;
    }
    const Kind kind = c == '.' ? Kind::Dot
                      : c == '(' ? Kind::LParen
                      : c == ':' ? Kind::Colon
                      : c == ';' ? Kind::Semicolon
                                 : Kind::Other;
    out.push_back({s.substr(i, 1), line, kind});
    ++i;
  }
  return out;
}

} // namespace

CheckResult checkDesign(const std::string& text) {
  CheckResult r;
  // Every token, set key and problem argument below is a view into `buf`.
  std::string buf;
  buf.reserve(text.size() + 1);
  buf = text;
  buf += '"';
  const std::vector<Tok> toks = tokenize(buf);
  auto problem = [&](int line, const std::string& msg) {
    r.ok = false;
    r.problems.push_back(fmt("line %0: %1", line, msg));
  };
  static const Tok sentinel{};
  auto tokAt = [&](size_t k) -> const Tok& { return k < toks.size() ? toks[k] : sentinel; };

  std::set<std::string_view> entities;
  std::set<std::string_view> architecturesOf;
  std::vector<std::string_view> instantiated; // entity names referenced via work.X

  // Pass 1: entity declarations and their end labels; block balance.
  // We track a stack of open constructs: entity, architecture, process,
  // if, case.
  struct Open {
    Kind kind;
    std::string_view name;
    int line;
  };
  std::vector<Open> stack;
  auto unclosed = [](const Open& o) {
    return fmt("unclosed %0 %1",
               o.kind == Kind::Entity         ? "entity"
               : o.kind == Kind::Architecture ? "architecture"
               : o.kind == Kind::Process      ? "process"
                                              : "if",
               o.name);
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    auto next = [&](size_t k) -> const Tok& { return tokAt(i + k); };
    if (t.kind == Kind::Entity) {
      // Either "entity NAME is" (declaration) or "entity work.NAME" (inst).
      if (next(1).kind == Kind::Work && next(2).kind == Kind::Dot) {
        instantiated.push_back(next(3).text);
        ++r.instantiationCount;
        continue;
      }
      if (next(2).kind == Kind::Is) {
        entities.insert(next(1).text);
        ++r.entityCount;
        stack.push_back({Kind::Entity, next(1).text, t.line});
        i += 2;
        continue;
      }
    }
    if (t.kind == Kind::Architecture && next(2).kind == Kind::Of) {
      // architecture NAME of ENTITY is
      architecturesOf.insert(next(3).text);
      ++r.architectureCount;
      stack.push_back({Kind::Architecture, next(3).text, t.line});
      i += 3;
      continue;
    }
    if (t.kind == Kind::Process || t.kind == Kind::If) {
      // "end process" / "end if" close a block; only an opener counts.
      const bool isEnd = i > 0 && toks[i - 1].kind == Kind::End;
      if (!isEnd) {
        if (t.kind == Kind::Process) ++r.processCount;
        stack.push_back({t.kind, "", t.line});
      }
      continue;
    }
    if (t.kind == Kind::End) {
      const Kind what = next(1).kind;
      if (what == Kind::If || what == Kind::Process || what == Kind::Entity ||
          what == Kind::Architecture) {
        if (stack.empty() || stack.back().kind != what) {
          problem(t.line, fmt("'end %0' without open %0", next(1).text));
        } else {
          const std::string_view declared = stack.back().name;
          if (what == Kind::Entity && isIdent(next(2)) && next(2).text != declared) {
            problem(t.line, fmt("entity end label '%0' does not match '%1'", next(2).text, declared));
          }
          stack.pop_back();
        }
        i += 1;
        continue;
      }
    }
  }
  for (const auto& open : stack) problem(open.line, unclosed(open));

  // Every architecture must belong to a declared entity, and vice versa.
  for (const auto& a : architecturesOf) {
    if (!entities.count(a)) problem(0, fmt("architecture of unknown entity '%0'", a));
  }
  for (const auto& e : entities) {
    if (!architecturesOf.count(e)) problem(0, fmt("entity '%0' has no architecture", e));
  }
  // Instantiations must resolve.
  for (const auto& inst : instantiated) {
    if (!entities.count(inst)) problem(0, fmt("instantiation of unknown entity '%0'", inst));
  }

  // Per-architecture declared-before-used check for signals assigned with
  // '<=': the assignment target must be a declared signal or port.
  // Re-scan with entity/port/signal tracking.
  {
    std::unordered_map<std::string_view, std::unordered_set<std::string_view>> portsOf;
    std::string_view currentEntity;
    bool inPorts = false;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Tok& t = toks[i];
      auto next = [&](size_t k) -> const Tok& { return tokAt(i + k); };
      if (t.kind == Kind::Entity && next(2).kind == Kind::Is) {
        currentEntity = next(1).text;
        inPorts = false;
      } else if (t.kind == Kind::Port && next(1).kind == Kind::LParen) {
        inPorts = true;
      } else if (inPorts && isIdent(t) && next(1).kind == Kind::Colon) {
        portsOf[currentEntity].insert(t.text);
      } else if (t.kind == Kind::End) {
        inPorts = false;
      }
    }

    std::string_view archEntity;
    std::unordered_set<std::string_view> visible;
    bool inBody = false;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Tok& t = toks[i];
      auto next = [&](size_t k) -> const Tok& { return tokAt(i + k); };
      if (t.kind == Kind::Architecture && next(2).kind == Kind::Of) {
        archEntity = next(3).text;
        visible = portsOf[archEntity];
        inBody = false;
        continue;
      }
      if (archEntity.empty()) continue;
      if ((t.kind == Kind::Signal || t.kind == Kind::Constant) && isIdent(next(1))) {
        visible.insert(next(1).text);
        continue;
      }
      if (!inBody && t.kind == Kind::Begin) {
        inBody = true;
        continue;
      }
      if (t.kind == Kind::End) {
        if (next(1).kind == Kind::Architecture) {
          archEntity = {};
          inBody = false;
        }
        continue;
      }
      if (inBody && isIdent(t) && next(1).kind == Kind::LessEq && i > 0) {
        // Only treat as a signal assignment when the identifier starts a
        // statement; '<=' after an expression context (if/when/loop
        // conditions, operands) is the relational operator.
        const Kind prev = toks[i - 1].kind;
        const bool stmtStart = prev == Kind::Semicolon || prev == Kind::Begin || prev == Kind::Then ||
                               prev == Kind::Else || prev == Kind::Loop || prev == Kind::Generate;
        if (!stmtStart) continue;
        if (!visible.count(t.text)) {
          problem(t.line, fmt("assignment to undeclared signal '%0' in architecture of '%1'",
                              t.text, archEntity));
        }
      }
    }
  }

  return r;
}

} // namespace roccc::vhdl
