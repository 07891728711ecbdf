#include "vhdl/layout.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>

#include "support/strings.hpp"

namespace roccc::hdl {

using rtl::Cell;
using rtl::CellKind;
using rtl::Module;

namespace {

bool isWordChar(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'); }
char lower(char c) { return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c; }

/// True when `s` already is an identifier: letters, digits and single inner
/// underscores, not starting with a digit. Most names are.
bool isClean(std::string_view s) {
  if (s.empty() || !isWordChar(s.front()) || !isWordChar(s.back()) || (s.front() >= '0' && s.front() <= '9')) {
    return false;
  }
  for (size_t i = 1; i < s.size(); ++i) {
    if (!isWordChar(s[i]) && !(s[i] == '_' && isWordChar(s[i - 1]))) return false;
  }
  return true;
}

/// Reserved words, lower case: VHDL-2008's, then those of Verilog-2005
/// that VHDL does not reserve.
constexpr std::string_view kVhdlWords[] = {
    "abs", "access", "after", "alias", "all", "and", "architecture", "array", "assert", "assume",
    "assume_guarantee", "attribute", "begin", "block", "body", "buffer", "bus", "case", "component",
    "configuration", "constant", "context", "cover", "default", "disconnect", "downto", "else",
    "elsif", "end", "entity", "exit", "fairness", "file", "for", "force", "function", "generate",
    "generic", "group", "guarded", "if", "impure", "in", "inertial", "inout", "is", "label",
    "library", "linkage", "literal", "loop", "map", "mod", "nand", "new", "next", "nor", "not",
    "null", "of", "on", "open", "or", "others", "out", "package", "parameter", "port", "postponed",
    "procedure", "process", "property", "protected", "pure", "range", "record", "register",
    "reject", "release", "rem", "report", "restrict", "restrict_guarantee", "return", "rol", "ror",
    "select", "sequence", "severity", "shared", "signal", "sla", "sll", "sra", "srl", "strong",
    "subtype", "then", "to", "transport", "type", "unaffected", "units", "until", "use", "variable",
    "vmode", "vprop", "vunit", "wait", "when", "while", "with", "xnor", "xor",
};
constexpr std::string_view kVerilogWords[] = {
    "always", "assign", "automatic", "buf", "bufif0", "bufif1", "casex", "casez", "cell", "cmos",
    "config", "deassign", "defparam", "design", "disable", "edge", "endcase", "endconfig",
    "endfunction", "endgenerate", "endmodule", "endprimitive", "endspecify", "endtable", "endtask",
    "event", "forever", "fork", "genvar", "highz0", "highz1", "ifnone", "incdir", "include",
    "initial", "input", "instance", "integer", "join", "large", "liblist", "localparam",
    "macromodule", "medium", "module", "negedge", "nmos", "noshowcancelled", "notif0", "notif1",
    "output", "pmos", "posedge", "primitive", "pull0", "pull1", "pulldown", "pullup",
    "pulsestyle_ondetect", "pulsestyle_onevent", "rcmos", "real", "realtime", "reg", "repeat",
    "rnmos", "rpmos", "rtran", "rtranif0", "rtranif1", "scalared", "showcancelled", "signed",
    "small", "specify", "specparam", "strong0", "strong1", "supply0", "supply1", "table", "task",
    "time", "tran", "tranif0", "tranif1", "tri", "tri0", "tri1", "triand", "trior", "trireg",
    "unsigned", "uwire", "vectored", "wand", "weak0", "weak1", "wire", "wor",
};

struct ReservedWord {
  std::string_view text;
  bool vhdl = false;
};
constexpr size_t kLongestWord = 19;
constexpr size_t kWordSlots = 512; ///< a power of two, over twice the words

constexpr uint32_t fnv1a(uint32_t h, char c) { return (h ^ static_cast<unsigned char>(c)) * 16777619u; }

/// Both lists in one open-addressing table, hashed with FNV-1a.
constexpr std::array<ReservedWord, kWordSlots> kReserved = [] {
  std::array<ReservedWord, kWordSlots> table{};
  auto add = [&](std::string_view w, bool vhdl) {
    uint32_t h = 2166136261u;
    for (char c : w) h = fnv1a(h, c);
    size_t i = h & (kWordSlots - 1);
    while (!table[i].text.empty()) i = (i + 1) & (kWordSlots - 1);
    table[i] = {w, vhdl};
  };
  for (std::string_view w : kVhdlWords) add(w, true);
  for (std::string_view w : kVerilogWords) add(w, false);
  return table;
}();

/// Index of a letter (0-25) or digit (26-35), lower-casing letters; 36 for
/// any other character.
constexpr size_t charIndex(char c) {
  if (c >= 'a' && c <= 'z') return static_cast<size_t>(c - 'a');
  if (c >= 'A' && c <= 'Z') return static_cast<size_t>(c - 'A');
  if (c >= '0' && c <= '9') return static_cast<size_t>(c - '0') + 26;
  return 36;
}

/// Per first character and per last character, a bit for each length some
/// reserved word has (of VHDL only, or of either language): most names fail
/// this test before any hashing.
struct LengthMasks {
  std::array<uint32_t, 37> first{}, last{};
};
constexpr LengthMasks lengthMasks(bool vhdlOnly) {
  LengthMasks m;
  for (const ReservedWord& w : kReserved) {
    if (w.text.empty() || (vhdlOnly && !w.vhdl)) continue;
    m.first[charIndex(w.text.front())] |= uint32_t{1} << w.text.size();
    m.last[charIndex(w.text.back())] |= uint32_t{1} << w.text.size();
  }
  return m;
}
constexpr LengthMasks kVhdlLengths = lengthMasks(true);
constexpr LengthMasks kAllLengths = lengthMasks(false);

/// The table's entry for `s` lower-cased, or null when it is no reserved
/// word of the set `masks` describes.
const ReservedWord* reservedWord(std::string_view s, const LengthMasks& masks) {
  if (s.empty() || s.size() > kLongestWord) return nullptr;
  if (!(masks.first[charIndex(s.front())] & masks.last[charIndex(s.back())] & uint32_t{1} << s.size())) return nullptr;
  char buf[kLongestWord];
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < s.size(); ++i) {
    buf[i] = lower(s[i]);
    h = fnv1a(h, buf[i]);
  }
  const std::string_view w(buf, s.size());
  for (size_t i = h & (kWordSlots - 1); !kReserved[i].text.empty(); i = (i + 1) & (kWordSlots - 1)) {
    if (kReserved[i].text == w) return &kReserved[i];
  }
  return nullptr;
}

} // namespace

bool isVhdlReservedWord(std::string_view s) {
  const ReservedWord* w = reservedWord(s, kVhdlLengths);
  return w && w->vhdl;
}

bool isReservedWord(std::string_view s) { return reservedWord(s, kAllLengths) != nullptr; }

std::string sanitize(std::string_view s) {
  if (isClean(s) && !isReservedWord(s)) return std::string(s);
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) || isReservedWord(out)) out = "s_" + out;
  return out;
}

int addrBits(size_t entries) {
  int b = 1;
  while ((size_t{1} << b) < entries) ++b;
  return b;
}

ScalarType inputType(const Module& m, const Cell& c, size_t k) {
  const ScalarType rt = m.nets[static_cast<size_t>(c.output)].type;
  const ScalarType in = m.nets[static_cast<size_t>(c.inputs[k])].type;
  switch (c.kind) {
    case CellKind::Mul: return {rt.width, false}; // the low bits do not depend on sign
    case CellKind::Shl: return k == 0 ? rt : ScalarType{in.width, false};
    case CellKind::Shr: return k == 0 ? ScalarType{std::max(in.width, rt.width), in.isSigned}
                                      : ScalarType{in.width, false};
    case CellKind::Eq: case CellKind::Ne: case CellKind::Lt:
    case CellKind::Le: case CellKind::Gt: case CellKind::Ge: {
      // As ops::cmp*: both operands extended by their own signedness, except
      // that an ordering with an unsigned operand of 32 or more bits compares
      // the low 32 bits unsigned.
      const ScalarType a = m.nets[static_cast<size_t>(c.inputs[0])].type;
      const ScalarType b = m.nets[static_cast<size_t>(c.inputs[1])].type;
      const bool ordering = c.kind != CellKind::Eq && c.kind != CellKind::Ne;
      if (ordering && ((!a.isSigned && a.width >= 32) || (!b.isSigned && b.width >= 32))) {
        return {32, false};
      }
      return {std::min(std::max(a.width, b.width) + 1, 64), true};
    }
    case CellKind::Mux: return k == 0 ? in : rt;
    case CellKind::Rom: return {addrBits(c.romData.size()), false};
    case CellKind::Reg: return k == 0 ? rt : in;
    case CellKind::Slice:
    case CellKind::Concat: return in;
    default: return rt; // arithmetic, logic and Resize read at the result type
  }
}

Partition partition(const Module& m, size_t nodeCount, size_t dataInputs, size_t dataOutputs) {
  Partition p;
  p.scopes.resize(nodeCount + 1);
  const int top = static_cast<int>(nodeCount);
  p.ports.assign(m.outputPorts.begin(),
                 m.outputPorts.begin() + static_cast<std::ptrdiff_t>(std::min(dataOutputs, m.outputPorts.size())));
  auto scopeOf = [&](int cell) {
    const int n = m.cells[static_cast<size_t>(cell)].node;
    return n < 0 ? top : n;
  };
  auto netType = [&](int net) { return m.nets[static_cast<size_t>(net)].type; };

  // Reads of every net, and the last reader: a cell input, or (cell -1) a
  // design output port.
  std::vector<int> uses(m.nets.size(), 0);
  std::vector<std::pair<int, size_t>> reader(m.nets.size(), {-1, 0});
  for (const Cell& c : m.cells) {
    for (size_t k = 0; k < c.inputs.size(); ++k) {
      ++uses[static_cast<size_t>(c.inputs[k])];
      reader[static_cast<size_t>(c.inputs[k])] = {c.id, k};
    }
  }
  for (int net : p.ports) {
    ++uses[static_cast<size_t>(net)];
    reader[static_cast<size_t>(net)] = {-1, 0};
  }

  // A Resize or Slice read once, in its own entity, becomes part of its
  // reader's reference: a narrower window on its input, or the input itself
  // when the reader's extension of it equals the Resize's.
  std::vector<char> done(m.nets.size(), 0), inlined(m.cells.size(), 0);
  p.refs.resize(m.nets.size());
  auto resolve = [&](auto& self, int net) -> const Ref& {
    Ref& r = p.refs[static_cast<size_t>(net)];
    if (done[static_cast<size_t>(net)]) return r;
    done[static_cast<size_t>(net)] = 1;
    const ScalarType t = netType(net);
    r = Ref{net, 0, t, 0};
    const int d = m.nets[static_cast<size_t>(net)].driver;
    if (d < 0) return r;
    const Cell& c = m.cells[static_cast<size_t>(d)];
    if (c.kind == CellKind::Const) {
      r = Ref{-1, 0, t, c.imm};
      inlined[static_cast<size_t>(d)] = 1;
      return r;
    }
    const auto [rd, k] = reader[static_cast<size_t>(net)];
    if ((c.kind != CellKind::Resize && c.kind != CellKind::Slice) || uses[static_cast<size_t>(net)] != 1 ||
        (rd < 0 ? top : scopeOf(rd)) != scopeOf(d)) {
      return r;
    }
    const Ref in = self(self, c.inputs[0]);
    if (c.kind == CellKind::Slice) {
      if (in.isLiteral()) {
        r = Ref{-1, 0, t, Value(t, Value::fromInt(in.type, in.literal).toUnsigned() >> c.aux1).toInt()};
      } else if (c.aux1 + t.width <= in.type.width) {
        r = Ref{in.net, in.lo + c.aux1, t, 0};
      } else {
        return r;
      }
    } else if (in.isLiteral()) {
      r = Ref{-1, 0, t, in.literalAs(t).toInt()};
    } else if (t.width <= in.type.width) {
      r = Ref{in.net, in.lo, t, 0};
    } else if (t.isSigned == in.type.isSigned || !in.type.isSigned ||
               (rd < 0 ? t : inputType(m, m.cells[static_cast<size_t>(rd)], k)).width <= t.width) {
      r = in;
    } else {
      return r;
    }
    inlined[static_cast<size_t>(d)] = 1;
    return r;
  };
  for (size_t n = 0; n < m.nets.size(); ++n) resolve(resolve, static_cast<int>(n));

  auto driverScope = [&](int net) {
    const int d = m.nets[static_cast<size_t>(net)].driver;
    return d < 0 ? top : scopeOf(d);
  };
  // A net read from another entity is an input of the reader's scope and,
  // once, an output of its driver's; `lastReader` skips the repeats of
  // consecutive reads from one scope.
  std::vector<int> lastReader(m.nets.size(), -1);
  std::vector<char> isOutput(m.nets.size(), 0);
  auto reference = [&](int scope, int net) {
    const Ref& r = p.refs[static_cast<size_t>(net)];
    if (r.isLiteral() || lastReader[static_cast<size_t>(r.net)] == scope) return;
    const int from = driverScope(r.net);
    if (from == scope) return;
    lastReader[static_cast<size_t>(r.net)] = scope;
    p.scopes[static_cast<size_t>(scope)].inputs.push_back(r.net);
    if (from != top && !isOutput[static_cast<size_t>(r.net)]) {
      isOutput[static_cast<size_t>(r.net)] = 1;
      p.scopes[static_cast<size_t>(from)].outputs.push_back(r.net);
    }
  };
  std::vector<size_t> cellCount(p.scopes.size(), 0);
  for (const Cell& c : m.cells) cellCount[static_cast<size_t>(scopeOf(c.id))] += !inlined[static_cast<size_t>(c.id)];
  for (size_t s = 0; s < p.scopes.size(); ++s) p.scopes[s].cells.reserve(cellCount[s]);
  for (const Cell& c : m.cells) {
    if (inlined[static_cast<size_t>(c.id)]) continue;
    Scope& s = p.scopes[static_cast<size_t>(scopeOf(c.id))];
    s.cells.push_back(c.id);
    s.clocked |= c.kind == CellKind::Reg;
    for (int in : c.inputs) reference(scopeOf(c.id), in);
  }
  for (int net : p.ports) reference(top, net);
  for (Scope& s : p.scopes) {
    std::sort(s.inputs.begin(), s.inputs.end());
    s.inputs.erase(std::unique(s.inputs.begin(), s.inputs.end()), s.inputs.end());
    std::sort(s.outputs.begin(), s.outputs.end());
    if (&s != &p.scopes.back()) p.exported.insert(p.exported.end(), s.outputs.begin(), s.outputs.end());
  }
  std::sort(p.exported.begin(), p.exported.end());

  // A net keeps its own name, so the text reads like Module::dump, when
  // nothing else can mean it: it is the only net of that name (ignoring
  // case, as VHDL does), no port or clock is called so, it has neither the
  // instance-label prefix "u_" nor a suffix the printers add, and it is
  // either the lowering's "t<N>" or holds an underscore and is not a
  // reserved word. The kernel's input ports are named as sanitize() names
  // their port. Every other net gets "n<id>_". A name that needs no
  // sanitizing is a view of the net's own; only the others are stored.
  std::vector<char> portName(m.nets.size(), 0);
  for (size_t i = 0; i < std::min(dataInputs, m.inputPorts.size()); ++i) {
    portName[static_cast<size_t>(m.inputPorts[i])] = 1;
  }
  auto portIdent = [&](const std::string& s) {
    return isClean(s) && !isReservedWord(s) ? std::string_view(s)
                                            : std::string_view(p.stored.emplace_back(sanitize(s)));
  };
  p.names.reserve(m.nets.size());
  for (const rtl::Net& n : m.nets) {
    if (portName[static_cast<size_t>(n.id)]) {
      p.names.push_back(portIdent(n.name));
    } else {
      p.names.push_back(isClean(n.name) ? std::string_view(n.name) : p.stored.emplace_back(sanitize(n.name)));
    }
  }
  // Clashes ignoring case: one open-addressing table over the nets' names
  // (indices 0..nets-1) and then the reserved ones (indices from nets),
  // each slot holding the first index inserted under its name.
  std::vector<std::string_view> reserved = {"clk", "ce"};
  for (const std::string& port : m.inputNames) reserved.push_back(portIdent(port));
  for (size_t i = 0; i < p.ports.size(); ++i) reserved.push_back(portIdent(m.outputNames[i]));
  const size_t nets = m.nets.size();
  auto nameAt = [&](size_t i) { return i < nets ? p.names[i] : reserved[i - nets]; };
  auto same = [](std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (lower(a[i]) != lower(b[i])) return false;
    }
    return true;
  };
  size_t cap = 16;
  while (cap < 2 * (nets + reserved.size())) cap *= 2;
  std::vector<int> table(cap, -1);
  std::vector<char> clash(nets, 0);
  for (size_t i = 0; i < nets + reserved.size(); ++i) {
    const std::string_view name = nameAt(i);
    uint32_t h = 2166136261u;
    for (char c : name) h = fnv1a(h, lower(c));
    for (size_t k = h & (cap - 1);; k = (k + 1) & (cap - 1)) {
      int& slot = table[k];
      if (slot < 0) {
        slot = static_cast<int>(i);
        break;
      }
      if (!same(nameAt(static_cast<size_t>(slot)), name)) continue;
      if (i < nets) clash[i] = 1;
      if (static_cast<size_t>(slot) < nets) clash[static_cast<size_t>(slot)] = 1;
      break;
    }
  }

  auto endsWith = [](std::string_view s, std::string_view tail) {
    return s.size() >= tail.size() && s.substr(s.size() - tail.size()) == tail;
  };
  for (size_t n = 0; n < p.names.size(); ++n) {
    const std::string_view s = p.names[n];
    const bool temp = s.size() > 1 && s[0] == 't' && s.find_first_not_of("0123456789", 1) == std::string_view::npos;
    const bool own = temp || (s.find('_') != std::string_view::npos && s.substr(0, 2) != "u_" &&
                              !endsWith(s, "_out") && !endsWith(s, "_rom") && !isReservedWord(s));
    if (portName[n] || (!clash[n] && own)) continue;
    p.names[n] = p.stored.emplace_back(fmt("n%0_%1", n, s));
  }
  return p;
}

} // namespace roccc::hdl
