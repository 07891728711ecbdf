// The VHDL and Verilog structural checkers, one streaming pass each.
//
// A table-driven lexer yields one token at a time into a ring window that
// holds the previous token, the current one and the next few; no token
// vector is built. Each checker's rule sets run on the tokens that can
// start a rule, dispatched on their kind, and whatever needs the whole text
// (which entity has an architecture, which port a later entity declares,
// which module an instantiation names) is collected in vectors, sorted and
// resolved after the last token. Problems come in a fixed order: those
// found in the text as they are met, then the end-of-text checks.
#include "vhdl/check.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "support/strings.hpp"
#include "vhdl/layout.hpp"
#include "vhdl/verilog.hpp"

namespace roccc {

namespace {

// ---- shared lexer and rule helpers -------------------------------------

/// Byte classes: each lexer maps every byte to the handler its token starts
/// with. Bytes the table leaves at 0 are single-character tokens.
using ByteTable = std::array<uint8_t, 256>;

/// C-locale <cctype> answers, as the checkers have always used them.
constexpr bool isAlpha(int c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
constexpr bool isDigit(int c) { return c >= '0' && c <= '9'; }
constexpr bool isSpace(int c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The table with `value` at every byte `pred` accepts, on top of `t`.
template <class Pred>
constexpr ByteTable mark(ByteTable t, Pred pred, uint8_t value) {
  for (int c = 0; c < 256; ++c) {
    if (pred(c)) t[static_cast<size_t>(c)] = value;
  }
  return t;
}

constexpr uint8_t at(const ByteTable& t, char c) { return t[static_cast<unsigned char>(c)]; }

/// A keyword table indexed by a hash of a word's first byte, last byte and
/// length, weighted so that the keywords of a language do not collide; a
/// word is a keyword when it equals the entry at its slot.
template <class Kind>
struct Keyword {
  std::string_view word;
  Kind kind{};
};

template <class Kind>
using KeywordTable = std::array<Keyword<Kind>, 32>;

struct KeywordHash {
  unsigned first, last;
};

constexpr size_t keywordSlot(std::string_view w, KeywordHash h) {
  return (h.first * static_cast<unsigned char>(w.front()) +
          h.last * static_cast<unsigned char>(w.back()) + w.size()) &
         31;
}

template <class Kind, size_t N>
constexpr KeywordTable<Kind> keywordTable(const Keyword<Kind> (&words)[N], KeywordHash h) {
  KeywordTable<Kind> t{};
  for (const Keyword<Kind>& k : words) {
    Keyword<Kind>& slot = t[keywordSlot(k.word, h)];
    // The tables are constexpr, so a collision stops the build here.
    if (!slot.word.empty()) throw "keyword slots collide";
    slot = k;
  }
  return t;
}

template <class Kind>
Kind keywordKind(const KeywordTable<Kind>& table, KeywordHash h, std::string_view w,
                 Kind notKeyword) {
  const Keyword<Kind>& k = table[keywordSlot(w, h)];
  return k.word == w ? k.kind : notKeyword;
}

/// The last `Ahead + 2` tokens of a lexer's stream: w[-1] is the previous
/// token, w[0] the current one, w[1..Ahead] the lookahead. Slots before the
/// first token and past the last one hold a default token (empty text).
template <class Lexer, size_t Ahead>
class TokenWindow {
 public:
  using Tok = typename Lexer::Tok;
  static_assert(Ahead + 2 <= 8);

  explicit TokenWindow(Lexer lexer) : lexer_(std::move(lexer)) {
    for (size_t k = 0; k <= Ahead; ++k) pull(k);
  }

  bool done() const { return pos_ >= end_; }
  size_t index() const { return pos_; } ///< of the current token
  const Tok& operator[](int k) const { return ring_[(pos_ + static_cast<size_t>(k)) & kMask]; }
  void advance() {
    ++pos_;
    pull(pos_ + Ahead);
  }

  /// Feeds the tokens after the current one to `visit` until it returns
  /// false or the text ends; past the window a copy of the lexer reads on.
  template <class Visit>
  void scanAhead(Visit&& visit) const {
    for (size_t k = 1; k <= Ahead; ++k) {
      if (pos_ + k >= end_ || !visit(ring_[(pos_ + k) & kMask])) return;
    }
    Lexer fork = lexer_;
    for (Tok t; fork.next(t);) {
      if (!visit(t)) return;
    }
  }

 private:
  static constexpr size_t kMask = 7;

  void pull(size_t k) {
    Tok& slot = ring_[k & kMask];
    if (k < end_ && lexer_.next(slot)) return;
    end_ = std::min(end_, k);
    slot = Tok{};
  }

  Lexer lexer_;
  std::array<Tok, kMask + 1> ring_{};
  size_t pos_ = 0;
  size_t end_ = SIZE_MAX;
};

/// Open-addressing set of names, which are views into the checked text.
/// clear() is O(1), so one set serves block after block.
class NameSet {
 public:
  void clear() {
    ++generation_;
    size_ = 0;
  }

  void insert(std::string_view name) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& s = slots_[find(name)];
    if (s.generation == generation_) return;
    s = {name, generation_};
    ++size_;
  }

  bool contains(std::string_view name) const {
    return !slots_.empty() && slots_[find(name)].generation == generation_;
  }

 private:
  struct Slot {
    std::string_view name;
    uint32_t generation = 0; ///< live only when equal to the set's
  };

  /// Index of the live slot holding `name`, or of the free slot where it
  /// would go.
  size_t find(std::string_view name) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = std::hash<std::string_view>{}(name) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.generation != generation_ || s.name == name) return i;
    }
  }

  void grow() {
    std::vector<Slot> old(std::max<size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.generation == generation_) slots_[find(s.name)] = s;
    }
  }

  std::vector<Slot> slots_;
  uint32_t generation_ = 1;
  size_t size_ = 0;
};

/// Sorts and deduplicates `names` in place, for sorted reports and
/// binary-search membership after the last token.
void sortUnique(std::vector<std::string_view>& names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
}

bool sortedContains(const std::vector<std::string_view>& names, std::string_view name) {
  return std::binary_search(names.begin(), names.end(), name);
}

template <class Result>
void addProblem(Result& r, int line, const std::string& msg) {
  r.ok = false;
  r.problems.push_back(fmt("line %0: %1", line, msg));
}

// ---- VHDL lexer --------------------------------------------------------

/// What the VHDL rules look for in a token. Every identifier, keyword or
/// not, sorts at or after Ident; literals, numbers and other punctuation
/// are Other.
enum class VKind : uint8_t {
  Other, Dot, LParen, Colon, Semicolon, LessEq,
  Ident, Entity, Architecture, Process, If, End, Work, Is, Of, Port, Signal,
  Constant, Begin, Then, Else, Loop, Generate,
};

struct VhdlTok {
  std::string_view text; ///< lower-cased word, literal, or punctuation
  int line = 0;
  VKind kind = VKind::Other;
};

bool isIdent(const VhdlTok& t) { return t.kind >= VKind::Ident; }

constexpr KeywordHash kVhdlHash{1, 17};
constexpr Keyword<VKind> kVhdlWords[] = {
    {"entity", VKind::Entity}, {"architecture", VKind::Architecture}, {"process", VKind::Process},
    {"if", VKind::If},         {"end", VKind::End},                   {"work", VKind::Work},
    {"is", VKind::Is},         {"of", VKind::Of},                     {"port", VKind::Port},
    {"signal", VKind::Signal}, {"constant", VKind::Constant},         {"begin", VKind::Begin},
    {"then", VKind::Then},     {"else", VKind::Else},                 {"loop", VKind::Loop},
    {"generate", VKind::Generate},
};
constexpr KeywordTable<VKind> kVhdlKeywords = keywordTable(kVhdlWords, kVhdlHash);

enum VhdlByte : uint8_t {
  kVPunct, kVSpace, kVNewline, kVDash, kVQuote, kVTick, kVWord, kVDigit, kVRelOp, kVEq,
};

constexpr ByteTable kVhdlBytes = [] {
  ByteTable t{};
  t = mark(t, isSpace, kVSpace);
  t = mark(t, [](int c) { return isAlpha(c) || c == '_'; }, kVWord);
  t = mark(t, isDigit, kVDigit);
  t = mark(t, [](int c) { return c == '<' || c == '>' || c == '/' || c == ':'; }, kVRelOp);
  t['\n'] = kVNewline;
  t['-'] = kVDash;
  t['"'] = kVQuote;
  t['\''] = kVTick;
  t['='] = kVEq;
  return t;
}();

/// The kind of a one-byte punctuation token.
constexpr ByteTable kVhdlPunct = [] {
  ByteTable t{};
  t['.'] = static_cast<uint8_t>(VKind::Dot);
  t['('] = static_cast<uint8_t>(VKind::LParen);
  t[':'] = static_cast<uint8_t>(VKind::Colon);
  t[';'] = static_cast<uint8_t>(VKind::Semicolon);
  return t;
}();

/// 1 for the bytes that continue a number: letters and digits.
constexpr ByteTable kVhdlNumber = mark({}, [](int c) { return isAlpha(c) || isDigit(c); }, 1);

/// 1 for the bytes that continue an identifier: letters, digits and '_'.
constexpr ByteTable kVhdlWordPart = mark(kVhdlNumber, [](int c) { return c == '_'; }, 1);

/// Lexes VHDL out of a copy of the text with one stop byte, '"', appended:
/// it closes a string literal left open at the end of the text and ends
/// every other scan without a bounds check. Identifiers are lower-cased
/// where they stand, so tokens are views into the copy and no token owns
/// one.
class VhdlLexer {
 public:
  using Tok = VhdlTok;

  explicit VhdlLexer(std::string& stopped) : buf_(stopped.data()), n_(stopped.size() - 1) {}

  bool next(Tok& t) {
    // The cursor lives in locals: stores through `buf` may alias members.
    char* const buf = buf_;
    const size_t n = n_;
    size_t i = i_;
    int line = line_;
    auto token = [&](size_t start, size_t end, VKind kind) {
      t = {std::string_view(buf + start, end - start), line, kind};
      i_ = end;
      line_ = line;
      return true;
    };
    while (i < n) {
      const size_t start = i;
      switch (static_cast<VhdlByte>(at(kVhdlBytes, buf[i]))) {
        case kVNewline:
          ++line;
          ++i;
          continue;
        case kVSpace:
          do ++i;
          while (at(kVhdlBytes, buf[i]) == kVSpace);
          continue;
        case kVDash:
          if (buf[i + 1] != '-') return token(i, i + 1, VKind::Other);
          if (const void* nl = std::memchr(buf + i, '\n', n - i)) {
            i = static_cast<size_t>(static_cast<const char*>(nl) - buf);
          } else {
            i = n;
          }
          continue;
        case kVQuote: { // string literal, closing quote included
          const void* close = std::memchr(buf + i + 1, '"', n - i);
          return token(start, static_cast<size_t>(static_cast<const char*>(close) - buf) + 1, VKind::Other);
        }
        case kVTick: // character literal like '1'; a lone tick is skipped
          if (i + 2 < n && buf[i + 2] == '\'') return token(i, i + 3, VKind::Other);
          ++i;
          continue;
        case kVWord: {
          do {
            if (buf[i] >= 'A' && buf[i] <= 'Z') buf[i] = static_cast<char>(buf[i] - 'A' + 'a');
            ++i;
          } while (at(kVhdlWordPart, buf[i]));
          const std::string_view w(buf + start, i - start);
          return token(start, i, keywordKind(kVhdlKeywords, kVhdlHash, w, VKind::Ident));
        }
        case kVDigit:
          do ++i;
          while (at(kVhdlNumber, buf[i]));
          return token(start, i, VKind::Other);
        case kVRelOp: // <= >= /= :=
          if (buf[i + 1] == '=') return token(i, i + 2, buf[i] == '<' ? VKind::LessEq : VKind::Other);
          return token(i, i + 1, static_cast<VKind>(at(kVhdlPunct, buf[i])));
        case kVEq: // =>
          return token(i, buf[i + 1] == '>' ? i + 2 : i + 1, VKind::Other);
        case kVPunct:
          return token(i, i + 1, static_cast<VKind>(at(kVhdlPunct, buf[i])));
      }
    }
    i_ = i;
    return false;
  }

 private:
  char* buf_;
  size_t n_;
  size_t i_ = 0;
  int line_ = 1;
};

using VhdlWindow = TokenWindow<VhdlLexer, 3>;

// ---- VHDL rules --------------------------------------------------------

/// Block balance, entity/architecture pairing and instantiations. After
/// `entity N is`, `architecture A of E` and `end X` these rules skip the
/// two, three or one tokens they have read; the other rules see every token.
struct BlockRules {
  struct Open {
    VKind kind;
    std::string_view name;
    int line;
  };
  std::vector<Open> stack;
  std::vector<std::string_view> entities, architecturesOf;
  std::vector<std::string_view> instantiated; ///< entity names of work.X, in text order
  size_t resumeAt = 0; ///< index of the first token the rules read again

  void step(const VhdlWindow& w, vhdl::CheckResult& r) {
    if (w.index() < resumeAt) return;
    const VhdlTok& t = w[0];
    switch (t.kind) {
      case VKind::Entity: // "entity work.NAME" (instantiation) or "entity NAME is"
        if (w[1].kind == VKind::Work && w[2].kind == VKind::Dot) {
          instantiated.push_back(w[3].text);
          ++r.instantiationCount;
        } else if (w[2].kind == VKind::Is) {
          entities.push_back(w[1].text);
          ++r.entityCount;
          stack.push_back({VKind::Entity, w[1].text, t.line});
          resumeAt = w.index() + 3;
        }
        return;
      case VKind::Architecture: // architecture NAME of ENTITY is
        if (w[2].kind == VKind::Of) {
          architecturesOf.push_back(w[3].text);
          ++r.architectureCount;
          stack.push_back({VKind::Architecture, w[3].text, t.line});
          resumeAt = w.index() + 4;
        }
        return;
      case VKind::Process:
      case VKind::If: // "end process" / "end if" close a block; only an opener counts
        if (w[-1].kind != VKind::End) {
          if (t.kind == VKind::Process) ++r.processCount;
          stack.push_back({t.kind, "", t.line});
        }
        return;
      case VKind::End: {
        const VKind what = w[1].kind;
        if (what != VKind::If && what != VKind::Process && what != VKind::Entity &&
            what != VKind::Architecture) {
          return;
        }
        if (stack.empty() || stack.back().kind != what) {
          addProblem(r, t.line, fmt("'end %0' without open %0", w[1].text));
        } else {
          const std::string_view declared = stack.back().name;
          if (what == VKind::Entity && isIdent(w[2]) && w[2].text != declared) {
            addProblem(r, t.line,
                       fmt("entity end label '%0' does not match '%1'", w[2].text, declared));
          }
          stack.pop_back();
        }
        resumeAt = w.index() + 2;
        return;
      }
      default:
        return;
    }
  }

  /// The end-of-text reports: unclosed blocks, then architectures and
  /// entities without a partner in sorted-name order, then unresolved
  /// instantiations in text order.
  void finish(vhdl::CheckResult& r) {
    for (const Open& o : stack) {
      addProblem(r, o.line,
                 fmt("unclosed %0 %1",
                     o.kind == VKind::Entity         ? "entity"
                     : o.kind == VKind::Architecture ? "architecture"
                     : o.kind == VKind::Process      ? "process"
                                                     : "if",
                     o.name));
    }
    sortUnique(entities);
    sortUnique(architecturesOf);
    for (const auto a : architecturesOf) {
      if (!sortedContains(entities, a)) addProblem(r, 0, fmt("architecture of unknown entity '%0'", a));
    }
    for (const auto e : entities) {
      if (!sortedContains(architecturesOf, e)) addProblem(r, 0, fmt("entity '%0' has no architecture", e));
    }
    for (const auto inst : instantiated) {
      if (!sortedContains(entities, inst)) addProblem(r, 0, fmt("instantiation of unknown entity '%0'", inst));
    }
  }
};

/// Port names per entity: identifiers followed by ':' after `port (`, up to
/// the next `end`. A port may not be named with a reserved word.
struct PortRules {
  using Port = std::pair<std::string_view, std::string_view>; ///< (entity, port)
  std::vector<Port> ports;
  std::string_view entity;
  bool inPorts = false;

  void step(const VhdlWindow& w, vhdl::CheckResult& r) {
    const VhdlTok& t = w[0];
    if (t.kind == VKind::Entity && w[2].kind == VKind::Is) {
      entity = w[1].text;
      inPorts = false;
    } else if (t.kind == VKind::Port && w[1].kind == VKind::LParen) {
      inPorts = true;
    } else if (inPorts && isIdent(t) && w[1].kind == VKind::Colon) {
      ports.emplace_back(entity, t.text);
      if (hdl::isVhdlReservedWord(t.text)) {
        addProblem(r, t.line, fmt("port '%0' of entity '%1' is named with a reserved word", t.text, entity));
      }
    } else if (t.kind == VKind::End) {
      inPorts = false;
    }
  }
};

/// Signal assignments inside an architecture body: the target must be a
/// signal or constant declared earlier in the architecture, or a port of its
/// entity. Ports are known only after the last token (the entity may come
/// later), so a target that is not a local waits in `unresolved`. A signal
/// or constant may not be named with a reserved word.
struct AssignRules {
  struct Target {
    std::string_view name, entity;
    int line;
  };
  NameSet locals; ///< of the open architecture
  std::vector<Target> unresolved;
  std::string_view entity; ///< of the open architecture; empty outside one
  bool inBody = false;

  void step(const VhdlWindow& w, vhdl::CheckResult& r) {
    const VhdlTok& t = w[0];
    if (t.kind == VKind::Architecture && w[2].kind == VKind::Of) {
      entity = w[3].text;
      locals.clear();
      inBody = false;
      return;
    }
    if (entity.empty()) return;
    if ((t.kind == VKind::Signal || t.kind == VKind::Constant) && isIdent(w[1])) {
      locals.insert(w[1].text);
      if (hdl::isVhdlReservedWord(w[1].text)) {
        addProblem(r, w[1].line, fmt("%0 '%1' is named with a reserved word", t.text, w[1].text));
      }
    } else if (!inBody && t.kind == VKind::Begin) {
      inBody = true;
    } else if (t.kind == VKind::End) {
      if (w[1].kind == VKind::Architecture) {
        entity = {};
        inBody = false;
      }
    } else if (inBody && isIdent(t) && w[1].kind == VKind::LessEq) {
      // Only an identifier that starts a statement is assigned; '<=' in an
      // expression (if/when/loop conditions, operands) is the relational
      // operator.
      const VKind prev = w[-1].kind;
      const bool stmtStart = prev == VKind::Semicolon || prev == VKind::Begin ||
                             prev == VKind::Then || prev == VKind::Else || prev == VKind::Loop ||
                             prev == VKind::Generate;
      if (stmtStart && !locals.contains(t.text)) unresolved.push_back({t.text, entity, t.line});
    }
  }

  void finish(std::vector<PortRules::Port>& ports, vhdl::CheckResult& r) const {
    if (!unresolved.empty()) std::sort(ports.begin(), ports.end());
    for (const Target& a : unresolved) {
      if (std::binary_search(ports.begin(), ports.end(), PortRules::Port(a.entity, a.name))) continue;
      addProblem(r, a.line,
                 fmt("assignment to undeclared signal '%0' in architecture of '%1'", a.name, a.entity));
    }
  }
};

// ---- Verilog lexer -----------------------------------------------------

/// What the Verilog rules look for in a token. The kinds from Module to
/// OtherKeyword are the keywords; Signed is a plain word to the rules that
/// test for keywords.
enum class GKind : uint8_t {
  Other, LBracket, RBracket, LParen, Semicolon, Word, Signed,
  Module, Endmodule, Begin, End, Always, Wire, Reg, Input, Output, Assign, OtherKeyword,
};

struct VerilogTok {
  std::string_view text;
  int line = 0;
  GKind kind = GKind::Other;
};

bool isKeyword(const VerilogTok& t) { return t.kind >= GKind::Module; }

constexpr KeywordHash kVerilogHash{10, 3};
constexpr Keyword<GKind> kVerilogWords[] = {
    {"module", GKind::Module},        {"endmodule", GKind::Endmodule},
    {"begin", GKind::Begin},          {"end", GKind::End},
    {"always", GKind::Always},        {"wire", GKind::Wire},
    {"reg", GKind::Reg},              {"input", GKind::Input},
    {"output", GKind::Output},        {"assign", GKind::Assign},
    {"signed", GKind::Signed},        {"case", GKind::OtherKeyword},
    {"endcase", GKind::OtherKeyword}, {"default", GKind::OtherKeyword},
    {"posedge", GKind::OtherKeyword}, {"if", GKind::OtherKeyword},
    {"else", GKind::OtherKeyword},
};
constexpr KeywordTable<GKind> kVerilogKeywords = keywordTable(kVerilogWords, kVerilogHash);

enum VerilogByte : uint8_t {
  kGPunct, kGSpace, kGNewline, kGSlash, kGWord, kGNumber, kGLess, kGGreater, kGEqOrBang,
};

constexpr ByteTable kVerilogBytes = [] {
  ByteTable t{};
  t = mark(t, isSpace, kGSpace);
  t = mark(t, [](int c) { return isAlpha(c) || c == '_' || c == '$'; }, kGWord);
  t = mark(t, [](int c) { return isDigit(c) || c == '\''; }, kGNumber);
  t['\n'] = kGNewline;
  t['/'] = kGSlash;
  t['<'] = kGLess;
  t['>'] = kGGreater;
  t['='] = kGEqOrBang;
  t['!'] = kGEqOrBang;
  return t;
}();

/// The kind of a one-byte punctuation token.
constexpr ByteTable kVerilogPunct = [] {
  ByteTable t{};
  t['['] = static_cast<uint8_t>(GKind::LBracket);
  t[']'] = static_cast<uint8_t>(GKind::RBracket);
  t['('] = static_cast<uint8_t>(GKind::LParen);
  t[';'] = static_cast<uint8_t>(GKind::Semicolon);
  return t;
}();

/// 1 for the bytes that continue a number: letters, digits and '\''.
constexpr ByteTable kVerilogNumber =
    mark({}, [](int c) { return isAlpha(c) || isDigit(c) || c == '\''; }, 1);

/// 1 for the bytes that continue a word: letters, digits, '_' and '$'.
constexpr ByteTable kVerilogWordPart =
    mark({}, [](int c) { return isAlpha(c) || isDigit(c) || c == '_' || c == '$'; }, 1);

/// Lexes Verilog straight out of the text. The NUL that ends every
/// std::string is a stop byte no scan continues through, so no lookahead
/// needs a bounds check. Tokens are views into the text.
class VerilogLexer {
 public:
  using Tok = VerilogTok;

  explicit VerilogLexer(const std::string& text) : s_(text.c_str()), n_(text.size()) {}

  bool next(Tok& t) {
    const char* const s = s_;
    const size_t n = n_;
    size_t i = i_;
    int line = line_;
    auto token = [&](size_t start, size_t end, GKind kind) {
      t = {std::string_view(s + start, end - start), line, kind};
      i_ = end;
      line_ = line;
      return true;
    };
    while (i < n) {
      const size_t start = i;
      switch (static_cast<VerilogByte>(at(kVerilogBytes, s[i]))) {
        case kGNewline:
          ++line;
          ++i;
          continue;
        case kGSpace:
          do ++i;
          while (at(kVerilogBytes, s[i]) == kGSpace);
          continue;
        case kGSlash:
          if (s[i + 1] != '/') return token(i, i + 1, GKind::Other);
          if (const void* nl = std::memchr(s + i, '\n', n - i)) {
            i = static_cast<size_t>(static_cast<const char*>(nl) - s);
          } else {
            i = n;
          }
          continue;
        case kGWord: {
          do ++i;
          while (at(kVerilogWordPart, s[i]));
          const std::string_view w(s + start, i - start);
          return token(start, i, keywordKind(kVerilogKeywords, kVerilogHash, w, GKind::Word));
        }
        case kGNumber:
          do ++i;
          while (at(kVerilogNumber, s[i]));
          return token(start, i, GKind::Other);
        case kGLess: // <= <<
          return token(i, s[i + 1] == '=' || s[i + 1] == '<' ? i + 2 : i + 1, GKind::Other);
        case kGGreater: // >= >>> >>
          if (s[i + 1] == '=') return token(i, i + 2, GKind::Other);
          if (s[i + 1] == '>') return token(i, s[i + 2] == '>' ? i + 3 : i + 2, GKind::Other);
          return token(i, i + 1, GKind::Other);
        case kGEqOrBang: // == !=
          return token(i, s[i + 1] == '=' ? i + 2 : i + 1, GKind::Other);
        case kGPunct:
          return token(i, i + 1, static_cast<GKind>(at(kVerilogPunct, s[i])));
      }
    }
    i_ = i;
    return false;
  }

 private:
  const char* s_;
  size_t n_;
  size_t i_ = 0;
  int line_ = 1;
};

using VerilogWindow = TokenWindow<VerilogLexer, 2>;

/// The name a declaration keyword at w[0] declares: the first token after
/// any `wire`/`reg`/`signed` and an optional `[...]` range. Empty text when
/// the text ends first.
VerilogTok declaredName(const VerilogWindow& w) {
  enum { kPrefix, kRange, kAfterRange } state = kPrefix;
  VerilogTok name;
  w.scanAhead([&](const VerilogTok& t) {
    if (state == kPrefix) {
      if (t.kind == GKind::Wire || t.kind == GKind::Reg || t.kind == GKind::Signed) return true;
      if (t.kind == GKind::LBracket) {
        state = kRange;
        return true;
      }
    } else if (state == kRange) {
      if (t.kind == GKind::RBracket) state = kAfterRange;
      return true;
    }
    name = t;
    return false;
  });
  return name;
}

} // namespace

// ---- VHDL checker ------------------------------------------------------

namespace vhdl {

CheckResult checkDesign(const std::string& text) {
  CheckResult r;
  // Every token, set key and problem argument below is a view into `buf`.
  std::string buf;
  buf.reserve(text.size() + 1);
  buf = text;
  buf += '"';

  BlockRules blocks;
  PortRules ports;
  AssignRules assigns;
  for (VhdlWindow w{VhdlLexer(buf)}; !w.done(); w.advance()) {
    // Every rule starts at an identifier, and at a plain (non-keyword) one
    // only when a ':' or '<=' follows it.
    const VKind kind = w[0].kind;
    if (kind < VKind::Ident) continue;
    if (kind == VKind::Ident && w[1].kind != VKind::Colon && w[1].kind != VKind::LessEq) continue;
    blocks.step(w, r);
    ports.step(w, r);
    assigns.step(w, r);
  }
  blocks.finish(r);
  assigns.finish(ports.ports, r);
  return r;
}

} // namespace vhdl

// ---- Verilog checker ---------------------------------------------------

namespace verilog {

CheckResult checkDesign(const std::string& text) {
  CheckResult r;
  struct Instance {
    std::string_view module;
    int line;
  };
  std::vector<std::string_view> modules;
  std::vector<Instance> instances; ///< in text order, resolved after the last token
  NameSet declared; ///< wires/regs/ports of the current module
  std::string_view currentModule;
  int depth = 0; // module nesting (must stay 0/1)
  int beginDepth = 0;

  for (VerilogWindow w{VerilogLexer(text)}; !w.done(); w.advance()) {
    const VerilogTok& t = w[0];
    switch (t.kind) {
      case GKind::Module:
        if (depth != 0) addProblem(r, t.line, "nested module");
        ++depth;
        ++r.moduleCount;
        currentModule = w[1].text;
        modules.push_back(currentModule);
        declared.clear();
        break;
      case GKind::Endmodule:
        if (depth != 1) addProblem(r, t.line, "endmodule without module");
        if (beginDepth != 0) addProblem(r, t.line, "unbalanced begin/end at endmodule");
        depth = 0;
        break;
      case GKind::Begin:
        ++beginDepth;
        break;
      case GKind::End:
        if (beginDepth == 0) {
          addProblem(r, t.line, "'end' without 'begin'");
        } else {
          --beginDepth;
        }
        break;
      case GKind::Always:
        ++r.alwaysCount;
        break;
      case GKind::Wire:
      case GKind::Reg:
      case GKind::Input:
      case GKind::Output:
        if (depth == 1) {
          const VerilogTok name = declaredName(w);
          if (!name.text.empty() && !isKeyword(name)) declared.insert(name.text);
        }
        break;
      case GKind::Assign:
        if (depth == 1 && !declared.contains(w[1].text)) {
          addProblem(r, t.line,
                     fmt("assign to undeclared '%0' in module '%1'", w[1].text, currentModule));
        }
        break;
      case GKind::Word:
        // Instantiation: MODULE NAME ( at the start of a module-body
        // statement, whether or not the module is declared before it.
        if (depth == 1 && w[1].kind == GKind::Word && w[2].kind == GKind::LParen &&
            (w[-1].kind == GKind::Semicolon || w[-1].kind == GKind::End)) {
          instances.push_back({t.text, t.line});
          ++r.instantiationCount;
        }
        break;
      default:
        break;
    }
  }
  if (depth != 0) addProblem(r, 0, "unterminated module");
  sortUnique(modules);
  for (const Instance& inst : instances) {
    if (!sortedContains(modules, inst.module)) {
      addProblem(r, inst.line, fmt("instantiation of unknown module '%0'", inst.module));
    }
  }
  return r;
}

} // namespace verilog

} // namespace roccc
