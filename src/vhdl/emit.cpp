#include "vhdl/emit.hpp"

#include <algorithm>
#include <cstdint>

#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "vhdl/layout.hpp"

namespace roccc::vhdl {

using rtl::Cell;
using rtl::CellKind;

namespace {

using hdl::Ref;
using hdl::sanitize;

std::string typeName(ScalarType t) {
  return fmt("%0(%1 downto 0)", t.isSigned ? "signed" : "unsigned", t.width - 1);
}

std::string cast(bool toSigned, const std::string& s) {
  return fmt("%0(%1)", toSigned ? "signed" : "unsigned", s);
}

/// `v` as a numeric_std literal; a bit string when VHDL's 32-bit integer
/// cannot hold it.
std::string literal(const Value& v) {
  const int64_t x = v.toInt();
  if (x >= INT32_MIN && x <= INT32_MAX) {
    return fmt("to_%0(%1, %2)", v.isSigned() ? "signed" : "unsigned", x, v.width());
  }
  std::string bits;
  for (int b = v.width() - 1; b >= 0; --b) bits += (v.bits() >> b & 1) ? '1' : '0';
  return fmt("%0'(\"%1\")", v.isSigned() ? "signed" : "unsigned", bits);
}

/// Bits [lo, lo + read.width) of the signal `s` (of type `named`), read as
/// `read` and converted to `t`: truncation keeps the low bits, extension
/// follows `read`'s signedness.
std::string fitBits(std::string s, ScalarType named, int lo, ScalarType read, ScalarType t) {
  const int w = std::min(read.width, t.width);
  if (lo != 0 || w != named.width) s += fmt("(%0 downto %1)", lo + w - 1, lo);
  bool sgn = named.isSigned;
  if (t.width > read.width) {
    if (sgn != read.isSigned) s = cast(read.isSigned, s);
    sgn = read.isSigned;
    s = fmt("resize(%0, %1)", s, t.width);
  }
  return sgn == t.isSigned ? s : cast(t.isSigned, s);
}

/// The expression `e` of type `from` converted to `t` (numeric_std's resize
/// keeps a signed value's sign bit when it narrows, so a signed value is
/// narrowed as unsigned).
std::string fitExpr(std::string e, ScalarType from, ScalarType t) {
  if (t.width != from.width) {
    if (from.isSigned && t.width < from.width) {
      e = cast(false, e);
      from.isSigned = false;
    }
    e = fmt("resize(%0, %1)", e, t.width);
  }
  return from.isSigned == t.isSigned ? e : cast(t.isSigned, e);
}

const char* relation(CellKind k) {
  switch (k) {
    case CellKind::Eq: return "=";
    case CellKind::Ne: return "/=";
    case CellKind::Lt: return "<";
    case CellKind::Le: return "<=";
    case CellKind::Gt: return ">";
    default: return ">=";
  }
}

class Printer {
 public:
  Printer(const dp::DataPath& dp, const rtl::Module& m, const hlir::KernelInfo& kernel)
      : dp_(dp), m_(m), kernel_(kernel), p_(hdl::partition(m, dp.nodes.size(), dp.inputs.size(), dp.outputs.size())) {}

  std::string run() {
    w_.line("-- Generated by ROCCC (reproduction): RTL VHDL for kernel '" + kernel_.kernelName + "'");
    w_.line(fmt("-- data path: %0 nodes (%1 soft, %2 hard), %3 pipeline stages", dp_.nodes.size(),
                dp_.softNodeCount, dp_.hardNodeCount, dp_.stageCount));
    w_.line(fmt("-- netlist: %0 cells, %1 register bits", m_.cells.size(), m_.registerBits()));
    w_.blank();
    romEntities();
    for (const auto& n : dp_.nodes) nodeEntity(n);
    topEntity();
    return w_.str();
  }

 private:
  const dp::DataPath& dp_;
  const rtl::Module& m_;
  const hlir::KernelInfo& kernel_;
  const hdl::Partition p_;
  IndentWriter w_;

  /// The module's first input ports are the kernel's; the rest (the valid
  /// bit) are std_logic controls.
  size_t dataInputs() const { return std::min(dp_.inputs.size(), m_.inputPorts.size()); }
  const Cell& cell(int id) const { return m_.cells[static_cast<size_t>(id)]; }
  ScalarType type(int net) const { return m_.nets[static_cast<size_t>(net)].type; }
  /// A net's identifier; the kernel's input ports are named after their port.
  const std::string& name(int net) const { return p_.names[static_cast<size_t>(net)]; }
  const Ref& ref(const Cell& c, size_t k) const { return p_.refs[static_cast<size_t>(c.inputs[k])]; }
  std::string romEntity(const Cell& c) const {
    return sanitize(m_.name) + "_" + sanitize(c.romName) + "_rom";
  }

  std::string fit(const Ref& r, ScalarType t) const {
    if (r.isLiteral()) return literal(r.literalAs(t));
    return fitBits(name(r.net), type(r.net), r.lo, r.type, t);
  }
  /// Input k of `c` as its statement reads it.
  std::string in(const Cell& c, size_t k) const { return fit(ref(c, k), hdl::inputType(m_, c, k)); }

  std::string amount(const Cell& c) const {
    const Ref& n = ref(c, 1);
    if (n.isLiteral()) return std::to_string(Value::fromInt(n.type, n.literal).toUnsigned());
    return "to_integer(" + in(c, 1) + ")";
  }

  /// The right-hand side of a combinational cell's assignment.
  std::string expr(const Cell& c) const {
    const ScalarType rt = type(c.output);
    switch (c.kind) {
      case CellKind::Add: return in(c, 0) + " + " + in(c, 1);
      case CellKind::Sub: return in(c, 0) + " - " + in(c, 1);
      case CellKind::Mul: return fitExpr(in(c, 0) + " * " + in(c, 1), {2 * rt.width, false}, rt);
      case CellKind::Neg: return "0 - " + in(c, 0);
      case CellKind::And: return in(c, 0) + " and " + in(c, 1);
      case CellKind::Or: return in(c, 0) + " or " + in(c, 1);
      case CellKind::Xor: return in(c, 0) + " xor " + in(c, 1);
      case CellKind::Not: return "not " + in(c, 0);
      case CellKind::Shl: return fmt("shift_left(%0, %1)", in(c, 0), amount(c));
      case CellKind::Shr: {
        // A constant shift that stays inside the operand is a slice.
        const Ref& a = ref(c, 0);
        const Ref& n = ref(c, 1);
        const uint64_t k = n.isLiteral() ? Value::fromInt(n.type, n.literal).toUnsigned() : 64;
        if (!a.isLiteral() && k < 64 && static_cast<int>(k) + rt.width <= a.type.width) {
          const int ki = static_cast<int>(k);
          return fit(Ref{a.net, a.lo + ki, {a.type.width - ki, a.type.isSigned}, 0}, rt);
        }
        return fitExpr(fmt("shift_right(%0, %1)", in(c, 0), amount(c)), hdl::inputType(m_, c, 0), rt);
      }
      case CellKind::Eq: case CellKind::Ne: case CellKind::Lt:
      case CellKind::Le: case CellKind::Gt: case CellKind::Ge: {
        const bool bit = rt.width == 1;
        return fmt("%0 when %1 %2 %3 else %4", bit ? "\"1\"" : literal(Value::fromInt(rt, 1)), in(c, 0),
                   relation(c.kind), in(c, 1), bit ? "\"0\"" : literal(Value::fromInt(rt, 0)));
      }
      case CellKind::Mux: return fmt("%0 when %1 /= 0 else %2", in(c, 1), in(c, 0), in(c, 2));
      case CellKind::Slice: {
        const Ref& r = ref(c, 0);
        if (!r.isLiteral() && c.aux1 + rt.width <= r.type.width) {
          return fit(Ref{r.net, r.lo + c.aux1, rt, 0}, rt);
        }
        const ScalarType u{hdl::inputType(m_, c, 0).width, false};
        return fitExpr(fmt("shift_right(%0, %1)", fit(r, u), c.aux1), u, rt);
      }
      case CellKind::Concat: {
        const ScalarType hi{hdl::inputType(m_, c, 0).width, false};
        const ScalarType lo{hdl::inputType(m_, c, 1).width, false};
        return fitExpr(fit(ref(c, 0), hi) + " & " + fit(ref(c, 1), lo), {hi.width + lo.width, false}, rt);
      }
      case CellKind::Resize: return in(c, 0);
      default:
        throw InternalCompilerError(
            fmt("vhdl: cell kind '%0' has no assignment form", rtl::cellKindName(c.kind)));
    }
  }

  void libraryClause() {
    w_.line("library ieee;");
    w_.line("use ieee.std_logic_1164.all;");
    w_.line("use ieee.numeric_std.all;");
    w_.blank();
  }

  void entity(const std::string& name, const std::vector<std::string>& ports) {
    libraryClause();
    w_.line("entity " + name + " is");
    if (!ports.empty()) {
      w_.indent();
      w_.line("port (");
      w_.indent();
      for (size_t i = 0; i < ports.size(); ++i) w_.line(ports[i] + (i + 1 < ports.size() ? ";" : ""));
      w_.dedent();
      w_.line(");");
      w_.dedent();
    }
    w_.line("end entity " + name + ";");
    w_.blank();
  }

  void romEntities() {
    std::vector<std::string> done;
    for (const Cell& c : m_.cells) {
      if (c.kind != CellKind::Rom) continue;
      const std::string name = romEntity(c);
      if (std::find(done.begin(), done.end(), name) != done.end()) continue;
      done.push_back(name);
      const ScalarType et = c.romElemType;
      entity(name, {fmt("addr : in unsigned(%0 downto 0)", hdl::addrBits(c.romData.size()) - 1),
                    "data : out " + typeName(et)});
      w_.line("architecture rtl of " + name + " is");
      w_.indent();
      w_.line(fmt("type rom_t is array (0 to %0) of %1;", c.romData.size() - 1, typeName(et)));
      std::vector<std::string> init;
      for (int64_t v : c.romData) init.push_back(literal(Value::fromInt(et, v)));
      w_.line("constant rom : rom_t := (" + join(init, ", ") + ");");
      w_.dedent();
      w_.line("begin");
      w_.indent();
      w_.line(fmt("data <= rom(to_integer(addr)) when to_integer(addr) <= %0 else rom(%0);",
                  c.romData.size() - 1));
      w_.dedent();
      w_.line("end architecture rtl;");
      w_.blank();
    }
  }

  /// Signals for the nets the scope's cells drive; registers start at their
  /// reset value.
  void declareCells(const hdl::Scope& s) {
    for (int id : s.cells) {
      const Cell& c = cell(id);
      const ScalarType t = type(c.output);
      std::string init;
      if (c.kind == CellKind::Reg) {
        init = c.imm == 0 ? " := (others => '0')" : " := " + literal(Value::fromInt(t, c.imm));
      }
      w_.line(fmt("signal %0 : %1%2;", name(c.output), typeName(t), init));
      if (c.kind == CellKind::Rom && c.romElemType != t) {
        w_.line(fmt("signal %0_rom : %1;", name(c.output), typeName(c.romElemType)));
      }
    }
  }

  /// The scope's cells: ROM instantiations and assignments in cell order,
  /// then its registers in one clocked process.
  void printCells(const hdl::Scope& s) {
    int lut = 0;
    for (int id : s.cells) {
      const Cell& c = cell(id);
      const std::string& y = name(c.output);
      if (c.kind == CellKind::Reg) continue;
      if (c.kind != CellKind::Rom) {
        w_.line(y + " <= " + expr(c) + ";");
        continue;
      }
      const bool direct = c.romElemType == type(c.output);
      w_.line(fmt("u_lut%0 : entity work.%1", lut++, romEntity(c)));
      w_.indent();
      w_.line(fmt("port map (addr => %0, data => %1);", in(c, 0), direct ? y : y + "_rom"));
      w_.dedent();
      if (!direct) {
        w_.line(y + " <= " + fitBits(y + "_rom", c.romElemType, 0, c.romElemType, type(c.output)) + ";");
      }
    }
    if (!s.clocked) return;
    w_.line("process (clk)");
    w_.line("begin");
    w_.indent();
    w_.line("if rising_edge(clk) then");
    w_.indent();
    w_.line("if ce = '1' then");
    w_.indent();
    for (int id : s.cells) {
      const Cell& c = cell(id);
      if (c.kind != CellKind::Reg) continue;
      const std::string assign = name(c.output) + " <= " + in(c, 0) + ";";
      if (c.inputs.size() < 2) {
        w_.line(assign);
        continue;
      }
      w_.line("if " + in(c, 1) + " /= 0 then");
      w_.indent();
      w_.line(assign);
      w_.dedent();
      w_.line("end if;");
    }
    w_.dedent();
    w_.line("end if;");
    w_.dedent();
    w_.line("end if;");
    w_.dedent();
    w_.line("end process;");
  }

  std::string nodeEntityName(const dp::DpNode& n) const { return sanitize(m_.name) + "_" + sanitize(n.label); }

  void nodeEntity(const dp::DpNode& n) {
    const hdl::Scope& s = p_.scopes[static_cast<size_t>(n.id)];
    const std::string entityName = nodeEntityName(n);
    std::vector<std::string> ports;
    if (s.clocked) ports = {"clk : in std_logic", "ce  : in std_logic"};
    for (int net : s.inputs) ports.push_back(name(net) + " : in " + typeName(type(net)));
    for (int net : s.outputs) ports.push_back(name(net) + "_out : out " + typeName(type(net)));
    entity(entityName, ports);
    w_.line("architecture rtl of " + entityName + " is");
    w_.indent();
    declareCells(s);
    w_.dedent();
    w_.line("begin");
    w_.indent();
    printCells(s);
    for (int net : s.outputs) w_.line(name(net) + "_out <= " + name(net) + ";");
    w_.dedent();
    w_.line("end architecture rtl;");
    w_.blank();
  }

  void topEntity() {
    const std::string top = sanitize(m_.name);
    std::vector<std::string> ports = {"clk : in std_logic", "ce  : in std_logic"};
    for (size_t i = dataInputs(); i < m_.inputPorts.size(); ++i) {
      ports.push_back(sanitize(m_.inputNames[i]) + " : in std_logic");
    }
    for (size_t i = 0; i < dataInputs(); ++i) {
      ports.push_back(name(m_.inputPorts[i]) + " : in " + typeName(type(m_.inputPorts[i])));
    }
    for (size_t i = 0; i < p_.ports.size(); ++i) {
      ports.push_back(sanitize(m_.outputNames[i]) + " : out " + typeName(type(p_.ports[i])));
    }
    entity(top, ports);

    // Signals: every net a node exports, the controls as numeric bits, and
    // the top level's own cells.
    w_.line("architecture rtl of " + top + " is");
    w_.indent();
    for (int net : p_.exported) w_.line(fmt("signal %0 : %1;", name(net), typeName(type(net))));
    for (size_t i = dataInputs(); i < m_.inputPorts.size(); ++i) {
      w_.line(fmt("signal %0 : %1;", name(m_.inputPorts[i]), typeName(type(m_.inputPorts[i]))));
    }
    declareCells(p_.top());
    w_.dedent();
    w_.line("begin");
    w_.indent();
    for (size_t i = dataInputs(); i < m_.inputPorts.size(); ++i) {
      w_.line(fmt("%0 <= \"1\" when %1 = '1' else \"0\";", name(m_.inputPorts[i]),
                  sanitize(m_.inputNames[i])));
    }
    for (const auto& n : dp_.nodes) {
      const hdl::Scope& s = p_.scopes[static_cast<size_t>(n.id)];
      std::vector<std::string> assoc;
      if (s.clocked) assoc = {"clk => clk", "ce => ce"};
      for (int net : s.inputs) assoc.push_back(name(net) + " => " + name(net));
      for (int net : s.outputs) assoc.push_back(name(net) + "_out => " + name(net));
      const std::string inst = fmt("u_%0 : entity work.%1", sanitize(n.label), nodeEntityName(n));
      if (assoc.empty()) {
        w_.line(inst + ";");
        continue;
      }
      w_.line(inst);
      w_.indent();
      w_.line("port map (" + join(assoc, ", ") + ");");
      w_.dedent();
    }
    printCells(p_.top());
    for (size_t i = 0; i < p_.ports.size(); ++i) {
      const int net = p_.ports[i];
      w_.line(sanitize(m_.outputNames[i]) + " <= " + fit(p_.refs[static_cast<size_t>(net)], type(net)) + ";");
    }
    w_.dedent();
    w_.line("end architecture rtl;");
  }
};

} // namespace

std::string emitDesign(const dp::DataPath& dp, const rtl::Module& module, const hlir::KernelInfo& kernel) {
  faultpoint("vhdl.emit");
  Printer p(dp, module, kernel);
  return p.run();
}

} // namespace roccc::vhdl
