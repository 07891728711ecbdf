#include "vhdl/layout.hpp"

#include <algorithm>
#include <cctype>

namespace roccc::hdl {

using rtl::Cell;
using rtl::CellKind;
using rtl::Module;

std::string sanitize(std::string_view s) {
  // Most names already are identifiers: letters, digits and single inner
  // underscores, not starting with a digit.
  const auto word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  bool clean = !s.empty() && word(s.front()) && word(s.back()) && !(s.front() >= '0' && s.front() <= '9');
  for (size_t i = 1; clean && i < s.size(); ++i) clean = word(s[i]) || (s[i] == '_' && word(s[i - 1]));
  if (clean) return std::string(s);
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out = "s_" + out;
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
  auto reference = [&](int scope, int net) {
    const Ref& r = p.refs[static_cast<size_t>(net)];
    if (r.isLiteral() || driverScope(r.net) == scope) return;
    p.scopes[static_cast<size_t>(scope)].inputs.push_back(r.net);
    if (driverScope(r.net) != top) p.scopes[static_cast<size_t>(driverScope(r.net))].outputs.push_back(r.net);
  };
  for (const Cell& c : m.cells) {
    if (inlined[static_cast<size_t>(c.id)]) continue;
    Scope& s = p.scopes[static_cast<size_t>(scopeOf(c.id))];
    s.cells.push_back(c.id);
    s.clocked |= c.kind == CellKind::Reg;
    for (int in : c.inputs) reference(scopeOf(c.id), in);
  }
  for (int net : p.ports) reference(top, net);
  for (Scope& s : p.scopes) {
    for (std::vector<int>* v : {&s.inputs, &s.outputs}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
    if (&s != &p.scopes.back()) p.exported.insert(p.exported.end(), s.outputs.begin(), s.outputs.end());
  }
  std::sort(p.exported.begin(), p.exported.end());

  // A net keeps its own name, so the text reads like Module::dump, when
  // nothing else can mean it: it is the only net of that name (ignoring
  // case, as VHDL does), no port or clock is called so, it has neither the
  // instance-label prefix "u_" nor a suffix the printers add, and it is
  // either the lowering's "t<N>" or holds an underscore, which no VHDL or
  // Verilog keyword does. The kernel's input ports are named after
  // themselves. Every other net gets "n<id>_".
  p.names.reserve(m.nets.size());
  for (const rtl::Net& n : m.nets) p.names.push_back(sanitize(n.name));
  std::vector<std::string> reserved = {"clk", "ce"};
  for (const std::string& port : m.inputNames) reserved.push_back(sanitize(port));
  for (size_t i = 0; i < p.ports.size(); ++i) reserved.push_back(sanitize(m.outputNames[i]));
  // Lower-cased copies, sorted through an index, find the names that clash.
  std::vector<std::string> lower(p.names);
  lower.insert(lower.end(), reserved.begin(), reserved.end());
  for (std::string& name : lower) {
    for (char& c : name) c = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  std::vector<int> byName(lower.size());
  for (size_t i = 0; i < byName.size(); ++i) byName[i] = static_cast<int>(i);
  std::sort(byName.begin(), byName.end(),
            [&](int a, int b) { return lower[static_cast<size_t>(a)] < lower[static_cast<size_t>(b)]; });
  std::vector<char> clash(m.nets.size(), 0);
  for (size_t i = 0; i + 1 < byName.size(); ++i) {
    if (lower[static_cast<size_t>(byName[i])] != lower[static_cast<size_t>(byName[i + 1])]) continue;
    for (const int j : {byName[i], byName[i + 1]}) {
      if (static_cast<size_t>(j) < clash.size()) clash[static_cast<size_t>(j)] = 1; // the rest are reserved names
    }
  }
  std::vector<char> portName(m.nets.size(), 0);
  for (size_t i = 0; i < std::min(dataInputs, m.inputPorts.size()); ++i) {
    portName[static_cast<size_t>(m.inputPorts[i])] = 1;
  }
  auto endsWith = [](const std::string& s, std::string_view tail) {
    return s.size() >= tail.size() && s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  };
  for (size_t n = 0; n < p.names.size(); ++n) {
    std::string& s = p.names[n];
    const bool temp = s.size() > 1 && s[0] == 't' && s.find_first_not_of("0123456789", 1) == std::string::npos;
    const bool own = temp || (s.find('_') != std::string::npos && s.compare(0, 2, "u_") != 0 &&
                              !endsWith(s, "_out") && !endsWith(s, "_rom"));
    if (!portName[n] && (clash[n] || !own)) s = "n" + std::to_string(n) + "_" + s;
  }
  return p;
}

} // namespace roccc::hdl
