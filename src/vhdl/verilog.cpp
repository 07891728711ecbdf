#include "vhdl/verilog.hpp"

#include <algorithm>
#include <charconv>

#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "vhdl/layout.hpp"

namespace roccc::verilog {

using rtl::Cell;
using rtl::CellKind;

namespace {

using hdl::Ref;
using hdl::sanitize;

/// `v` as a sized hex literal ("8'hff").
std::string literal(const Value& v) {
  char buf[16];
  return fmt("%0'h%1", v.width(), std::string(buf, std::to_chars(buf, buf + sizeof buf, v.bits(), 16).ptr));
}

std::string range(ScalarType t) { return fmt("[%0:0]", t.width - 1); }

/// Bits [lo, lo + read.width) of the vector `s` (of type `named`), read as
/// `read` and converted to `t`: truncation keeps the low bits, extension
/// follows `read`'s signedness.
std::string fitBits(const std::string& s, ScalarType named, int lo, ScalarType read, ScalarType t) {
  const int w = std::min(read.width, t.width);
  std::string bits = s;
  if (lo != 0 || w != named.width) bits += w == 1 ? fmt("[%0]", lo) : fmt("[%0:%1]", lo + w - 1, lo);
  if (t.width <= read.width) return bits;
  const int k = t.width - read.width;
  if (!read.isSigned) return fmt("{%0'd0, %1}", k, bits);
  const std::string sign = fmt("%0[%1]", s, lo + read.width - 1);
  return k == 1 ? fmt("{%0, %1}", sign, bits) : fmt("{{%0{%1}}, %2}", k, sign, bits);
}

const char* relation(CellKind k) {
  switch (k) {
    case CellKind::Eq: return "==";
    case CellKind::Ne: return "!=";
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
    w_.line("// Generated by ROCCC (reproduction): Verilog for kernel '" + kernel_.kernelName + "'");
    w_.line(fmt("// data path: %0 nodes, %1 pipeline stages", dp_.nodes.size(), dp_.stageCount));
    w_.blank();
    romModules();
    for (const auto& n : dp_.nodes) nodeModule(n);
    topModule();
    return w_.str();
  }

 private:
  const dp::DataPath& dp_;
  const rtl::Module& m_;
  const hlir::KernelInfo& kernel_;
  const hdl::Partition p_;
  IndentWriter w_;
  bool atTop_ = false;

  const Cell& cell(int id) const { return m_.cells[static_cast<size_t>(id)]; }
  ScalarType type(int net) const { return m_.nets[static_cast<size_t>(net)].type; }
  const std::string& ident(int net) const { return p_.names[static_cast<size_t>(net)]; }
  /// How the current module reads a net: its identifier, except that in
  /// the top module every input port, the valid bit too, is its port.
  std::string name(int net) const {
    const rtl::Net& n = m_.nets[static_cast<size_t>(net)];
    return atTop_ && n.driver < 0 ? sanitize(n.name) : ident(net);
  }
  const Ref& ref(const Cell& c, size_t k) const { return p_.refs[static_cast<size_t>(c.inputs[k])]; }
  std::string romModule(const Cell& c) const { return sanitize(m_.name) + "_" + sanitize(c.romName) + "_rom"; }
  /// The kernel's input ports are vectors; the controls after them (the
  /// valid bit) are plain wires.
  std::string portRange(size_t input) const {
    return input < dp_.inputs.size() ? range(type(m_.inputPorts[input])) + " " : "";
  }

  std::string fit(const Ref& r, ScalarType t) const {
    if (r.isLiteral()) return literal(r.literalAs(t));
    return fitBits(name(r.net), type(r.net), r.lo, r.type, t);
  }
  /// Input k of `c` as its statement reads it.
  std::string in(const Cell& c, size_t k) const { return fit(ref(c, k), hdl::inputType(m_, c, k)); }

  /// The right-hand side of a combinational cell's assign; the assignment
  /// truncates or zero-extends it to the result width.
  std::string expr(const Cell& c) const {
    const ScalarType rt = type(c.output);
    switch (c.kind) {
      case CellKind::Add: return in(c, 0) + " + " + in(c, 1);
      case CellKind::Sub: return in(c, 0) + " - " + in(c, 1);
      case CellKind::Mul: return in(c, 0) + " * " + in(c, 1);
      case CellKind::Neg: return "-" + in(c, 0);
      case CellKind::And: return in(c, 0) + " & " + in(c, 1);
      case CellKind::Or: return in(c, 0) + " | " + in(c, 1);
      case CellKind::Xor: return in(c, 0) + " ^ " + in(c, 1);
      case CellKind::Not: return "~" + in(c, 0);
      case CellKind::Shl: return in(c, 0) + " << " + in(c, 1);
      case CellKind::Shr: {
        // A constant shift that stays inside the operand is a part-select.
        const Ref& a = ref(c, 0);
        const Ref& n = ref(c, 1);
        const uint64_t k = n.isLiteral() ? Value::fromInt(n.type, n.literal).toUnsigned() : 64;
        if (!a.isLiteral() && k < 64 && static_cast<int>(k) + rt.width <= a.type.width) {
          const int ki = static_cast<int>(k);
          return fit(Ref{a.net, a.lo + ki, {a.type.width - ki, a.type.isSigned}, 0}, rt);
        }
        if (!hdl::inputType(m_, c, 0).isSigned) return in(c, 0) + " >> " + in(c, 1);
        return "$signed(" + in(c, 0) + ") >>> " + in(c, 1);
      }
      case CellKind::Eq: case CellKind::Ne: case CellKind::Lt:
      case CellKind::Le: case CellKind::Gt: case CellKind::Ge: {
        const bool sgn = hdl::inputType(m_, c, 0).isSigned;
        const std::string a = sgn ? "$signed(" + in(c, 0) + ")" : in(c, 0);
        const std::string b = sgn ? "$signed(" + in(c, 1) + ")" : in(c, 1);
        return fmt("(%0 %1 %2) ? %3 : %4", a, relation(c.kind), b, literal(Value::fromInt(rt, 1)),
                   literal(Value::fromInt(rt, 0)));
      }
      case CellKind::Mux: return fmt("%0 ? %1 : %2", in(c, 0), in(c, 1), in(c, 2));
      case CellKind::Slice: {
        const Ref& r = ref(c, 0);
        if (!r.isLiteral() && c.aux1 + rt.width <= r.type.width) {
          return fit(Ref{r.net, r.lo + c.aux1, rt, 0}, rt);
        }
        return fmt("%0 >> %1", in(c, 0), c.aux1);
      }
      case CellKind::Concat: return fmt("{%0, %1}", in(c, 0), in(c, 1));
      case CellKind::Resize: return in(c, 0);
      default:
        throw InternalCompilerError(
            fmt("verilog: cell kind '%0' has no assign form", rtl::cellKindName(c.kind)));
    }
  }

  void romModules() {
    std::vector<std::string> done;
    for (const Cell& c : m_.cells) {
      if (c.kind != CellKind::Rom) continue;
      const std::string name = romModule(c);
      if (std::find(done.begin(), done.end(), name) != done.end()) continue;
      done.push_back(name);
      const int ab = hdl::addrBits(c.romData.size());
      w_.line(fmt("module %0(input wire [%1:0] addr, output reg %2 data);", name, ab - 1, range(c.romElemType)));
      w_.indent();
      w_.line("always @* begin");
      w_.indent();
      w_.line("case (addr)");
      w_.indent();
      for (size_t i = 0; i < c.romData.size(); ++i) {
        w_.line(fmt("%0'd%1: data = %2;", ab, i, literal(Value::fromInt(c.romElemType, c.romData[i]))));
      }
      // Addresses past the table read its last word, as the simulators do.
      w_.line(fmt("default: data = %0;", literal(Value::fromInt(c.romElemType, c.romData.back()))));
      w_.dedent();
      w_.line("endcase");
      w_.dedent();
      w_.line("end");
      w_.dedent();
      w_.line("endmodule");
      w_.blank();
    }
  }

  /// Wires and regs for the nets the scope's cells drive; registers start
  /// at their reset value.
  void declareCells(const hdl::Scope& s) {
    for (int id : s.cells) {
      const Cell& c = cell(id);
      const ScalarType t = type(c.output);
      const std::string& y = ident(c.output);
      if (c.kind == CellKind::Reg) {
        w_.line(fmt("reg %0 %1 = %2;", range(t), y, literal(Value::fromInt(t, c.imm))));
        continue;
      }
      w_.line(fmt("wire %0 %1;", range(t), y));
      if (c.kind == CellKind::Rom && c.romElemType != t) w_.line(fmt("wire %0 %1_rom;", range(c.romElemType), y));
    }
  }

  /// The scope's cells: ROM instantiations and assigns in cell order, then
  /// its registers in one clocked block.
  void printCells(const hdl::Scope& s) {
    int lut = 0;
    for (int id : s.cells) {
      const Cell& c = cell(id);
      const std::string& y = ident(c.output);
      if (c.kind == CellKind::Reg) continue;
      if (c.kind != CellKind::Rom) {
        w_.line("assign " + y + " = " + expr(c) + ";");
        continue;
      }
      const bool direct = c.romElemType == type(c.output);
      w_.line(fmt("%0 u_lut%1(.addr(%2), .data(%3));", romModule(c), lut++, in(c, 0), direct ? y : y + "_rom"));
      if (!direct) {
        w_.line(fmt("assign %0 = %1;", y, fitBits(y + "_rom", c.romElemType, 0, c.romElemType, type(c.output))));
      }
    }
    if (!s.clocked) return;
    w_.line("always @(posedge clk) begin");
    w_.indent();
    w_.line("if (ce) begin");
    w_.indent();
    for (int id : s.cells) {
      const Cell& c = cell(id);
      if (c.kind != CellKind::Reg) continue;
      const std::string assign = ident(c.output) + " <= " + in(c, 0) + ";";
      w_.line(c.inputs.size() < 2 ? assign : "if (" + in(c, 1) + ") " + assign);
    }
    w_.dedent();
    w_.line("end");
    w_.dedent();
    w_.line("end");
  }

  std::string nodeModuleName(const dp::DpNode& n) const { return sanitize(m_.name) + "_" + sanitize(n.label); }

  void nodeModule(const dp::DpNode& n) {
    const hdl::Scope& s = p_.scopes[static_cast<size_t>(n.id)];
    std::vector<std::string> ports;
    if (s.clocked) ports = {"input wire clk", "input wire ce"};
    for (int net : s.inputs) ports.push_back(fmt("input wire %0 %1", range(type(net)), ident(net)));
    for (int net : s.outputs) ports.push_back(fmt("output wire %0 %1_out", range(type(net)), ident(net)));
    w_.line("module " + nodeModuleName(n) + "(" + join(ports, ", ") + ");");
    w_.indent();
    declareCells(s);
    atTop_ = false;
    printCells(s);
    for (int net : s.outputs) w_.line(fmt("assign %0_out = %0;", ident(net)));
    w_.dedent();
    w_.line("endmodule");
    w_.blank();
  }

  void topModule() {
    std::vector<std::string> ports = {"input wire clk", "input wire ce"};
    const size_t dataInputs = std::min(dp_.inputs.size(), m_.inputPorts.size());
    for (size_t i = dataInputs; i < m_.inputPorts.size(); ++i) {
      ports.push_back("input wire " + sanitize(m_.inputNames[i]));
    }
    for (size_t i = 0; i < dataInputs; ++i) {
      ports.push_back("input wire " + portRange(i) + sanitize(m_.inputNames[i]));
    }
    for (size_t i = 0; i < p_.ports.size(); ++i) {
      ports.push_back(fmt("output wire %0 %1", range(type(p_.ports[i])), sanitize(m_.outputNames[i])));
    }
    w_.line("module " + sanitize(m_.name) + "(" + join(ports, ", ") + ");");
    w_.indent();
    for (int net : p_.exported) w_.line(fmt("wire %0 %1;", range(type(net)), ident(net)));
    declareCells(p_.top());
    atTop_ = true;
    for (const auto& n : dp_.nodes) {
      const hdl::Scope& s = p_.scopes[static_cast<size_t>(n.id)];
      std::vector<std::string> assoc;
      if (s.clocked) assoc = {".clk(clk)", ".ce(ce)"};
      for (int net : s.inputs) assoc.push_back(fmt(".%0(%1)", ident(net), name(net)));
      for (int net : s.outputs) assoc.push_back(fmt(".%0_out(%1)", ident(net), name(net)));
      w_.line(fmt("%0 u_%1(%2);", nodeModuleName(n), sanitize(n.label), join(assoc, ", ")));
    }
    printCells(p_.top());
    for (size_t i = 0; i < p_.ports.size(); ++i) {
      const int net = p_.ports[i];
      w_.line(fmt("assign %0 = %1;", sanitize(m_.outputNames[i]), fit(p_.refs[static_cast<size_t>(net)], type(net))));
    }
    w_.dedent();
    w_.line("endmodule");
  }
};

} // namespace

std::string emitDesign(const dp::DataPath& dp, const rtl::Module& module, const hlir::KernelInfo& kernel) {
  faultpoint("verilog.emit");
  Printer p(dp, module, kernel);
  return p.run();
}

} // namespace roccc::verilog
