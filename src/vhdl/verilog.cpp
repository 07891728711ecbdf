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

// Pieces a statement is written from, besides text and integers: input k of
// a cell as its statement reads it (read as signed when `sgn`), a cell's
// right-hand side and a reference converted to a type.
struct In {
  const Cell& c;
  size_t k;
  bool sgn = false;
};
/// The right-hand side of a combinational cell's assign.
struct Expr {
  const Cell& c;
};
/// A reference converted to a type.
struct Fit {
  hdl::Ref r;
  ScalarType t;
};

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
      : dp_(dp), m_(m), kernel_(kernel), p_(hdl::partition(m, dp.nodes.size(), dp.inputs.size(), dp.outputs.size())),
        top_(sanitize(m.name)) {
    // One reservation holds the whole text: an upper bound per cell, node
    // module, module port and ROM word, fitted on Table 1 and the corpus.
    size_t ports = 0, romWords = 0;
    for (const hdl::Scope& s : p_.scopes) ports += s.inputs.size() + s.outputs.size();
    for (const Cell& c : m_.cells) romWords += c.romData.size();
    w_.reserve(512 + 80 * m_.cells.size() + 128 * dp_.nodes.size() + 80 * ports + 36 * romWords);
    for (const auto& n : dp_.nodes) labels_.push_back(sanitize(n.label));
    for (const rtl::Net& n : m_.nets) {
      if (n.driver < 0) portNames_.emplace_back(n.id, sanitize(n.name));
    }
  }

  std::string run() {
    line("// Generated by ROCCC (reproduction): Verilog for kernel '", kernel_.kernelName, "'");
    line("// data path: ", dp_.nodes.size(), " nodes, ", dp_.stageCount, " pipeline stages");
    w_.blank();
    romModules();
    for (const auto& n : dp_.nodes) nodeModule(n);
    topModule();
    return w_.take();
  }

 private:
  const dp::DataPath& dp_;
  const rtl::Module& m_;
  const hlir::KernelInfo& kernel_;
  const hdl::Partition p_;
  const std::string top_;           ///< the top module's name
  std::vector<std::string> labels_; ///< per data-path node: its module's suffix
  /// Undriven nets (the input ports, the valid bit too) and their port
  /// names, ascending by net.
  std::vector<std::pair<int, std::string>> portNames_;
  IndentWriter w_;
  bool atTop_ = false;
  bool firstItem_ = true; ///< of the port list or connection list being written

  const Cell& cell(int id) const { return m_.cells[static_cast<size_t>(id)]; }
  ScalarType type(int net) const { return m_.nets[static_cast<size_t>(net)].type; }
  std::string_view ident(int net) const { return p_.names[static_cast<size_t>(net)]; }
  /// How the current module reads a net: its identifier, except that in
  /// the top module every input port, the valid bit too, is its port.
  std::string_view name(int net) const {
    if (atTop_ && m_.nets[static_cast<size_t>(net)].driver < 0) {
      return std::lower_bound(portNames_.begin(), portNames_.end(), net,
                              [](const auto& entry, int n) { return entry.first < n; })
          ->second;
    }
    return ident(net);
  }
  const Ref& ref(const Cell& c, size_t k) const { return p_.refs[static_cast<size_t>(c.inputs[k])]; }

  // Writing: put() appends pieces to the open line, line() writes a whole
  // one. A ScalarType is written as its range and a Value as its literal.
  template <typename T>
  void piece(const T& text) { w_.put(text); }
  void piece(ScalarType t) { w_.put("[", t.width - 1, ":0]"); }
  /// A sized hex literal ("8'hff").
  void piece(const Value& v) {
    char buf[16];
    const char* end = std::to_chars(buf, buf + sizeof buf, v.bits(), 16).ptr;
    w_.put(v.width(), "'h", std::string_view(buf, static_cast<size_t>(end - buf)));
  }
  void piece(const In& x) {
    if (x.sgn) w_.put("$signed(");
    fit(ref(x.c, x.k), hdl::inputType(m_, x.c, x.k));
    if (x.sgn) w_.put(")");
  }
  void piece(const Expr& x) { expr(x.c); }
  void piece(const Fit& x) { fit(x.r, x.t); }
  template <typename... Args>
  void put(const Args&... args) { (piece(args), ...); }
  template <typename... Args>
  void line(const Args&... args) {
    w_.begin();
    put(args...);
    w_.end();
  }

  /// Bits [lo, lo + read.width) of the vector `s` + `suffix` (of type
  /// `named`), read as `read` and converted to `t`: truncation keeps the low
  /// bits, extension follows `read`'s signedness.
  void fitBits(std::string_view s, std::string_view suffix, ScalarType named, int lo, ScalarType read,
               ScalarType t) {
    const int w = std::min(read.width, t.width);
    const int k = t.width - read.width;
    if (k > 0 && !read.isSigned) {
      w_.put("{", k, "'d0, ");
    } else if (k == 1) {
      w_.put("{", s, suffix, "[", lo + read.width - 1, "], ");
    } else if (k > 1) {
      w_.put("{{", k, "{", s, suffix, "[", lo + read.width - 1, "]}}, ");
    }
    w_.put(s, suffix);
    if (w == 1 && (lo != 0 || w != named.width)) w_.put("[", lo, "]");
    if (w != 1 && (lo != 0 || w != named.width)) w_.put("[", lo + w - 1, ":", lo, "]");
    if (k > 0) w_.put("}");
  }

  void fit(const Ref& r, ScalarType t) {
    if (r.isLiteral()) return piece(r.literalAs(t));
    fitBits(name(r.net), {}, type(r.net), r.lo, r.type, t);
  }

  /// The right-hand side of a combinational cell's assign; the assignment
  /// truncates or zero-extends it to the result width.
  void expr(const Cell& c) {
    const ScalarType rt = type(c.output);
    switch (c.kind) {
      case CellKind::Add: return put(In{c, 0}, " + ", In{c, 1});
      case CellKind::Sub: return put(In{c, 0}, " - ", In{c, 1});
      case CellKind::Mul: return put(In{c, 0}, " * ", In{c, 1});
      case CellKind::Neg: return put("-", In{c, 0});
      case CellKind::And: return put(In{c, 0}, " & ", In{c, 1});
      case CellKind::Or: return put(In{c, 0}, " | ", In{c, 1});
      case CellKind::Xor: return put(In{c, 0}, " ^ ", In{c, 1});
      case CellKind::Not: return put("~", In{c, 0});
      case CellKind::Shl: return put(In{c, 0}, " << ", In{c, 1});
      case CellKind::Shr: {
        // A constant shift that stays inside the operand is a part-select.
        const Ref& a = ref(c, 0);
        const Ref& n = ref(c, 1);
        const uint64_t k = n.isLiteral() ? Value::fromInt(n.type, n.literal).toUnsigned() : 64;
        if (!a.isLiteral() && k < 64 && static_cast<int>(k) + rt.width <= a.type.width) {
          const int ki = static_cast<int>(k);
          return fit(Ref{a.net, a.lo + ki, {a.type.width - ki, a.type.isSigned}, 0}, rt);
        }
        if (!hdl::inputType(m_, c, 0).isSigned) return put(In{c, 0}, " >> ", In{c, 1});
        return put(In{c, 0, true}, " >>> ", In{c, 1});
      }
      case CellKind::Eq: case CellKind::Ne: case CellKind::Lt:
      case CellKind::Le: case CellKind::Gt: case CellKind::Ge: {
        const bool sgn = hdl::inputType(m_, c, 0).isSigned;
        return put("(", In{c, 0, sgn}, " ", relation(c.kind), " ", In{c, 1, sgn}, ") ? ", Value::fromInt(rt, 1),
                   " : ", Value::fromInt(rt, 0));
      }
      case CellKind::Mux: return put(In{c, 0}, " ? ", In{c, 1}, " : ", In{c, 2});
      case CellKind::Slice: {
        const Ref& r = ref(c, 0);
        if (!r.isLiteral() && c.aux1 + rt.width <= r.type.width) return fit(Ref{r.net, r.lo + c.aux1, rt, 0}, rt);
        return put(In{c, 0}, " >> ", c.aux1);
      }
      case CellKind::Concat: return put("{", In{c, 0}, ", ", In{c, 1}, "}");
      case CellKind::Resize: return put(In{c, 0});
      default:
        throw InternalCompilerError(
            fmt("verilog: cell kind '%0' has no assign form", rtl::cellKindName(c.kind)));
    }
  }

  /// Writes the next item of a port or connection list, after ", " but the
  /// first.
  template <typename... Args>
  void item(const Args&... args) {
    if (!firstItem_) w_.put(", ");
    firstItem_ = false;
    put(args...);
  }

  void romModules() {
    std::vector<std::string> done;
    for (const Cell& c : m_.cells) {
      if (c.kind != CellKind::Rom) continue;
      std::string rom = sanitize(c.romName);
      if (std::find(done.begin(), done.end(), rom) != done.end()) continue;
      const int ab = hdl::addrBits(c.romData.size());
      const ScalarType et = c.romElemType;
      line("module ", top_, "_", rom, "_rom(input wire [", ab - 1, ":0] addr, output reg ", et, " data);");
      w_.indent();
      line("always @* begin");
      w_.indent();
      line("case (addr)");
      w_.indent();
      for (size_t i = 0; i < c.romData.size(); ++i) {
        line(ab, "'d", i, ": data = ", Value::fromInt(et, c.romData[i]), ";");
      }
      // Addresses past the table read its last word, as the simulators do.
      line("default: data = ", Value::fromInt(et, c.romData.back()), ";");
      w_.dedent();
      line("endcase");
      w_.dedent();
      line("end");
      w_.dedent();
      line("endmodule");
      w_.blank();
      done.push_back(std::move(rom));
    }
  }

  /// Wires and regs for the nets the scope's cells drive; registers start
  /// at their reset value.
  void declareCells(const hdl::Scope& s) {
    for (int id : s.cells) {
      const Cell& c = cell(id);
      const ScalarType t = type(c.output);
      const std::string_view y = ident(c.output);
      if (c.kind == CellKind::Reg) {
        line("reg ", t, " ", y, " = ", Value::fromInt(t, c.imm), ";");
        continue;
      }
      line("wire ", t, " ", y, ";");
      if (c.kind == CellKind::Rom && c.romElemType != t) line("wire ", c.romElemType, " ", y, "_rom;");
    }
  }

  /// The scope's cells: ROM instantiations and assigns in cell order, then
  /// its registers in one clocked block.
  void printCells(const hdl::Scope& s) {
    int lut = 0;
    for (int id : s.cells) {
      const Cell& c = cell(id);
      const std::string_view y = ident(c.output);
      if (c.kind == CellKind::Reg) continue;
      if (c.kind != CellKind::Rom) {
        line("assign ", y, " = ", Expr{c}, ";");
        continue;
      }
      const bool direct = c.romElemType == type(c.output);
      line(top_, "_", sanitize(c.romName), "_rom u_lut", lut++, "(.addr(", In{c, 0}, "), .data(", y,
           direct ? "" : "_rom", "));");
      if (!direct) {
        w_.begin("assign ", y, " = ");
        fitBits(y, "_rom", c.romElemType, 0, c.romElemType, type(c.output));
        w_.put(";").end();
      }
    }
    if (!s.clocked) return;
    line("always @(posedge clk) begin");
    w_.indent();
    line("if (ce) begin");
    w_.indent();
    for (int id : s.cells) {
      const Cell& c = cell(id);
      if (c.kind != CellKind::Reg) continue;
      w_.begin();
      if (c.inputs.size() >= 2) put("if (", In{c, 1}, ") ");
      put(ident(c.output), " <= ", In{c, 0}, ";");
      w_.end();
    }
    w_.dedent();
    line("end");
    w_.dedent();
    line("end");
  }

  void nodeModule(const dp::DpNode& n) {
    const hdl::Scope& s = p_.scopes[static_cast<size_t>(n.id)];
    w_.begin("module ", top_, "_", labels_[static_cast<size_t>(n.id)], "(");
    firstItem_ = true;
    if (s.clocked) item("input wire clk, input wire ce");
    for (int net : s.inputs) item("input wire ", type(net), " ", ident(net));
    for (int net : s.outputs) item("output wire ", type(net), " ", ident(net), "_out");
    w_.put(");").end();
    w_.indent();
    declareCells(s);
    atTop_ = false;
    printCells(s);
    for (int net : s.outputs) line("assign ", ident(net), "_out = ", ident(net), ";");
    w_.dedent();
    line("endmodule");
    w_.blank();
  }

  void topModule() {
    // The kernel's input ports are vectors; the controls after them (the
    // valid bit) are plain wires.
    const size_t dataInputs = std::min(dp_.inputs.size(), m_.inputPorts.size());
    w_.begin("module ", top_, "(input wire clk, input wire ce");
    for (size_t i = dataInputs; i < m_.inputPorts.size(); ++i) put(", input wire ", sanitize(m_.inputNames[i]));
    for (size_t i = 0; i < dataInputs; ++i) {
      put(", input wire ", type(m_.inputPorts[i]), " ", sanitize(m_.inputNames[i]));
    }
    for (size_t i = 0; i < p_.ports.size(); ++i) {
      put(", output wire ", type(p_.ports[i]), " ", sanitize(m_.outputNames[i]));
    }
    w_.put(");").end();
    w_.indent();
    for (int net : p_.exported) line("wire ", type(net), " ", ident(net), ";");
    declareCells(p_.top());
    atTop_ = true;
    for (const auto& n : dp_.nodes) {
      const hdl::Scope& s = p_.scopes[static_cast<size_t>(n.id)];
      const std::string& label = labels_[static_cast<size_t>(n.id)];
      w_.begin(top_, "_", label, " u_", label, "(");
      firstItem_ = true;
      if (s.clocked) item(".clk(clk), .ce(ce)");
      for (int net : s.inputs) item(".", ident(net), "(", name(net), ")");
      for (int net : s.outputs) item(".", ident(net), "_out(", name(net), ")");
      w_.put(");").end();
    }
    printCells(p_.top());
    for (size_t i = 0; i < p_.ports.size(); ++i) {
      const int net = p_.ports[i];
      line("assign ", sanitize(m_.outputNames[i]), " = ", Fit{p_.refs[static_cast<size_t>(net)], type(net)}, ";");
    }
    w_.dedent();
    line("endmodule");
  }
};

} // namespace

std::string emitDesign(const dp::DataPath& dp, const rtl::Module& module, const hlir::KernelInfo& kernel) {
  faultpoint("verilog.emit");
  Printer p(dp, module, kernel);
  return p.run();
}

} // namespace roccc::verilog
