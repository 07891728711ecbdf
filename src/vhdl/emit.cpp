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

const char* signedness(bool isSigned) { return isSigned ? "signed" : "unsigned"; }

/// A conversion around an operand, decided before any of it is written:
/// an outer signedness cast around a resize around an inner cast, each
/// optional (-1 / 0 for absent).
struct Wrap {
  int outer = -1; ///< cast to signed (1) or unsigned (0)
  int resize = 0; ///< target width of a numeric_std resize
  int inner = -1; ///< cast applied before the resize
};

/// The conversion of an expression of type `from` to `t` (numeric_std's
/// resize keeps a signed value's sign bit when it narrows, so a signed value
/// is narrowed as unsigned).
Wrap fitExpr(ScalarType from, ScalarType t) {
  Wrap w;
  if (t.width != from.width) {
    if (from.isSigned && t.width < from.width) {
      w.inner = 0;
      from.isSigned = false;
    }
    w.resize = t.width;
  }
  if (from.isSigned != t.isSigned) w.outer = t.isSigned;
  return w;
}

// Pieces a statement is written from, besides text and integers: input k of
// a cell as its statement reads it, a cell's right-hand side, a reference
// converted to a type, and the two halves of a conversion.
struct In {
  const Cell& c;
  size_t k;
};
/// The right-hand side of a combinational cell's assignment.
struct Expr {
  const Cell& c;
};
/// A shift cell's amount.
struct Amount {
  const Cell& c;
};
struct Fit {
  Ref r;
  ScalarType t;
};
struct Open {
  Wrap w;
};
struct Close {
  Wrap w;
};

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
      : dp_(dp), m_(m), kernel_(kernel), p_(hdl::partition(m, dp.nodes.size(), dp.inputs.size(), dp.outputs.size())),
        top_(sanitize(m.name)) {
    // One reservation holds the whole text: an upper bound per cell, node
    // entity, entity port and ROM word, fitted on Table 1 and the corpus.
    size_t ports = 0, romWords = 0;
    for (const hdl::Scope& s : p_.scopes) ports += s.inputs.size() + s.outputs.size();
    for (const Cell& c : m_.cells) romWords += c.romData.size();
    w_.reserve(1024 + 96 * m_.cells.size() + 320 * dp_.nodes.size() + 128 * ports + 24 * romWords);
    for (const auto& n : dp_.nodes) labels_.push_back(sanitize(n.label));
    for (size_t i = 0; i < p_.ports.size(); ++i) outputs_.push_back(sanitize(m_.outputNames[i]));
  }

  std::string run() {
    line("-- Generated by ROCCC (reproduction): RTL VHDL for kernel '", kernel_.kernelName, "'");
    line("-- data path: ", dp_.nodes.size(), " nodes (", dp_.softNodeCount, " soft, ", dp_.hardNodeCount,
         " hard), ", dp_.stageCount, " pipeline stages");
    line("-- netlist: ", m_.cells.size(), " cells, ", m_.registerBits(), " register bits");
    w_.blank();
    romEntities();
    for (const auto& n : dp_.nodes) nodeEntity(n);
    topEntity();
    return w_.take();
  }

 private:
  const dp::DataPath& dp_;
  const rtl::Module& m_;
  const hlir::KernelInfo& kernel_;
  const hdl::Partition p_;
  const std::string top_;            ///< the top entity's name
  std::vector<std::string> labels_;  ///< per data-path node: its entity's suffix
  std::vector<std::string> outputs_; ///< per design output port: its name
  IndentWriter w_;
  bool firstItem_ = true; ///< of the port list or port map being written

  /// The module's first input ports are the kernel's; the rest (the valid
  /// bit) are std_logic controls.
  size_t dataInputs() const { return std::min(dp_.inputs.size(), m_.inputPorts.size()); }
  const Cell& cell(int id) const { return m_.cells[static_cast<size_t>(id)]; }
  ScalarType type(int net) const { return m_.nets[static_cast<size_t>(net)].type; }
  /// A net's identifier; the kernel's input ports are named after their port.
  std::string_view name(int net) const { return p_.names[static_cast<size_t>(net)]; }
  const Ref& ref(const Cell& c, size_t k) const { return p_.refs[static_cast<size_t>(c.inputs[k])]; }

  // Writing: put() appends pieces to the open line, line() writes a whole
  // one. A ScalarType is written as its type name and a Value as its
  // literal.
  template <typename T>
  void piece(const T& text) { w_.put(text); }
  void piece(ScalarType t) { w_.put(signedness(t.isSigned), "(", t.width - 1, " downto 0)"); }
  /// `v` as a numeric_std literal; a bit string when VHDL's 32-bit integer
  /// cannot hold it.
  void piece(const Value& v) {
    const int64_t x = v.toInt();
    if (x >= INT32_MIN && x <= INT32_MAX) {
      w_.put("to_", signedness(v.isSigned()), "(", x, ", ", v.width(), ")");
      return;
    }
    w_.put(signedness(v.isSigned()), "'(\"");
    for (int b = v.width() - 1; b >= 0; --b) w_.put((v.bits() >> b & 1) ? '1' : '0');
    w_.put("\")");
  }
  /// A shift's amount: a number, or its input read as an integer.
  void piece(const Amount& x) {
    const Cell& c = x.c;
    const Ref& n = ref(c, 1);
    if (n.isLiteral()) {
      w_.put(Value::fromInt(n.type, n.literal).toUnsigned());
    } else {
      put("to_integer(", In{c, 1}, ")");
    }
  }
  void piece(const In& x) { fit(ref(x.c, x.k), hdl::inputType(m_, x.c, x.k)); }
  void piece(const Fit& x) { fit(x.r, x.t); }
  void piece(const Expr& x) { expr(x.c); }
  void piece(const Open& x) {
    if (x.w.outer >= 0) w_.put(signedness(x.w.outer), "(");
    if (x.w.resize) w_.put("resize(");
    if (x.w.inner >= 0) w_.put(signedness(x.w.inner), "(");
  }
  void piece(const Close& x) {
    if (x.w.inner >= 0) w_.put(")");
    if (x.w.resize) w_.put(", ", x.w.resize, ")");
    if (x.w.outer >= 0) w_.put(")");
  }
  template <typename... Args>
  void put(const Args&... args) { (piece(args), ...); }
  template <typename... Args>
  void line(const Args&... args) {
    w_.begin();
    put(args...);
    w_.end();
  }

  /// Bits [lo, lo + read.width) of the signal `s` + `suffix` (of type
  /// `named`), read as `read` and converted to `t`: truncation keeps the low
  /// bits, extension follows `read`'s signedness.
  void fitBits(std::string_view s, std::string_view suffix, ScalarType named, int lo, ScalarType read,
               ScalarType t) {
    const int w = std::min(read.width, t.width);
    Wrap c;
    bool sgn = named.isSigned;
    if (t.width > read.width) {
      if (sgn != read.isSigned) c.inner = read.isSigned;
      sgn = read.isSigned;
      c.resize = t.width;
    }
    if (sgn != t.isSigned) c.outer = t.isSigned;
    put(Open{c}, s, suffix);
    if (lo != 0 || w != named.width) w_.put("(", lo + w - 1, " downto ", lo, ")");
    put(Close{c});
  }

  void fit(const Ref& r, ScalarType t) {
    if (r.isLiteral()) return piece(r.literalAs(t));
    fitBits(name(r.net), {}, type(r.net), r.lo, r.type, t);
  }

  /// A compare's result `b` at type `t`: a bit string for one bit.
  void boolean(ScalarType t, int b) {
    if (t.width == 1) {
      w_.put(b ? "\"1\"" : "\"0\"");
    } else {
      piece(Value::fromInt(t, b));
    }
  }

  /// The right-hand side of a combinational cell's assignment.
  void expr(const Cell& c) {
    const ScalarType rt = type(c.output);
    switch (c.kind) {
      case CellKind::Add: return put(In{c, 0}, " + ", In{c, 1});
      case CellKind::Sub: return put(In{c, 0}, " - ", In{c, 1});
      case CellKind::Mul: {
        const Wrap w = fitExpr({2 * rt.width, false}, rt);
        return put(Open{w}, In{c, 0}, " * ", In{c, 1}, Close{w});
      }
      case CellKind::Neg: return put("0 - ", In{c, 0});
      case CellKind::And: return put(In{c, 0}, " and ", In{c, 1});
      case CellKind::Or: return put(In{c, 0}, " or ", In{c, 1});
      case CellKind::Xor: return put(In{c, 0}, " xor ", In{c, 1});
      case CellKind::Not: return put("not ", In{c, 0});
      case CellKind::Shl: return put("shift_left(", In{c, 0}, ", ", Amount{c}, ")");
      case CellKind::Shr: {
        // A constant shift that stays inside the operand is a slice.
        const Ref& a = ref(c, 0);
        const Ref& n = ref(c, 1);
        const uint64_t k = n.isLiteral() ? Value::fromInt(n.type, n.literal).toUnsigned() : 64;
        if (!a.isLiteral() && k < 64 && static_cast<int>(k) + rt.width <= a.type.width) {
          const int ki = static_cast<int>(k);
          return fit(Ref{a.net, a.lo + ki, {a.type.width - ki, a.type.isSigned}, 0}, rt);
        }
        const Wrap w = fitExpr(hdl::inputType(m_, c, 0), rt);
        return put(Open{w}, "shift_right(", In{c, 0}, ", ", Amount{c}, ")", Close{w});
      }
      case CellKind::Eq: case CellKind::Ne: case CellKind::Lt:
      case CellKind::Le: case CellKind::Gt: case CellKind::Ge:
        boolean(rt, 1);
        put(" when ", In{c, 0}, " ", relation(c.kind), " ", In{c, 1}, " else ");
        return boolean(rt, 0);
      case CellKind::Mux: return put(In{c, 1}, " when ", In{c, 0}, " /= 0 else ", In{c, 2});
      case CellKind::Slice: {
        const Ref& r = ref(c, 0);
        if (!r.isLiteral() && c.aux1 + rt.width <= r.type.width) return fit(Ref{r.net, r.lo + c.aux1, rt, 0}, rt);
        const ScalarType u{hdl::inputType(m_, c, 0).width, false};
        const Wrap w = fitExpr(u, rt);
        return put(Open{w}, "shift_right(", Fit{r, u}, ", ", c.aux1, ")", Close{w});
      }
      case CellKind::Concat: {
        const ScalarType hi{hdl::inputType(m_, c, 0).width, false};
        const ScalarType lo{hdl::inputType(m_, c, 1).width, false};
        const Wrap w = fitExpr({hi.width + lo.width, false}, rt);
        return put(Open{w}, Fit{ref(c, 0), hi}, " & ", Fit{ref(c, 1), lo}, Close{w});
      }
      case CellKind::Resize: return put(In{c, 0});
      default:
        throw InternalCompilerError(
            fmt("vhdl: cell kind '%0' has no assignment form", rtl::cellKindName(c.kind)));
    }
  }

  /// Opens `entity <name...> is` and its port list; port() starts each
  /// port's line and endEntity() closes both.
  template <typename... Name>
  void beginEntity(bool hasPorts, const Name&... name) {
    line("library ieee;");
    line("use ieee.std_logic_1164.all;");
    line("use ieee.numeric_std.all;");
    w_.blank();
    line("entity ", name..., " is");
    if (!hasPorts) return;
    w_.indent();
    line("port (");
    w_.indent();
    firstItem_ = true;
  }
  /// Writes the next port, closing the previous one's line with ';'.
  template <typename... Args>
  void port(const Args&... args) {
    if (!firstItem_) w_.put(";").end();
    firstItem_ = false;
    w_.begin();
    put(args...);
  }
  template <typename... Name>
  void endEntity(bool hasPorts, const Name&... name) {
    if (hasPorts) {
      w_.end();
      w_.dedent();
      line(");");
      w_.dedent();
    }
    line("end entity ", name..., ";");
    w_.blank();
  }
  /// Writes the next association of a port map, after ", " but the first.
  template <typename... Args>
  void assoc(const Args&... args) {
    if (!firstItem_) w_.put(", ");
    firstItem_ = false;
    put(args...);
  }

  void romEntities() {
    std::vector<std::string> done;
    for (const Cell& c : m_.cells) {
      if (c.kind != CellKind::Rom) continue;
      std::string rom = sanitize(c.romName);
      if (std::find(done.begin(), done.end(), rom) != done.end()) continue;
      const ScalarType et = c.romElemType;
      const size_t last = c.romData.size() - 1;
      beginEntity(true, top_, "_", rom, "_rom");
      port("addr : in unsigned(", hdl::addrBits(c.romData.size()) - 1, " downto 0)");
      port("data : out ", et);
      endEntity(true, top_, "_", rom, "_rom");
      line("architecture rtl of ", top_, "_", rom, "_rom is");
      w_.indent();
      line("type rom_t is array (0 to ", last, ") of ", et, ";");
      w_.begin("constant rom : rom_t := (");
      for (size_t i = 0; i <= last; ++i) put(i ? ", " : "", Value::fromInt(et, c.romData[i]));
      w_.put(");").end();
      w_.dedent();
      line("begin");
      w_.indent();
      line("data <= rom(to_integer(addr)) when to_integer(addr) <= ", last, " else rom(", last, ");");
      w_.dedent();
      line("end architecture rtl;");
      w_.blank();
      done.push_back(std::move(rom));
    }
  }

  /// Signals for the nets the scope's cells drive; registers start at their
  /// reset value.
  void declareCells(const hdl::Scope& s) {
    for (int id : s.cells) {
      const Cell& c = cell(id);
      const ScalarType t = type(c.output);
      w_.begin();
      put("signal ", name(c.output), " : ", t);
      if (c.kind == CellKind::Reg && c.imm == 0) put(" := (others => '0')");
      if (c.kind == CellKind::Reg && c.imm != 0) put(" := ", Value::fromInt(t, c.imm));
      w_.put(";").end();
      if (c.kind == CellKind::Rom && c.romElemType != t) line("signal ", name(c.output), "_rom : ", c.romElemType, ";");
    }
  }

  /// The scope's cells: ROM instantiations and assignments in cell order,
  /// then its registers in one clocked process.
  void printCells(const hdl::Scope& s) {
    int lut = 0;
    for (int id : s.cells) {
      const Cell& c = cell(id);
      const std::string_view y = name(c.output);
      if (c.kind == CellKind::Reg) continue;
      if (c.kind != CellKind::Rom) {
        line(y, " <= ", Expr{c}, ";");
        continue;
      }
      const bool direct = c.romElemType == type(c.output);
      line("u_lut", lut++, " : entity work.", top_, "_", sanitize(c.romName), "_rom");
      w_.indent();
      line("port map (addr => ", In{c, 0}, ", data => ", y, direct ? "" : "_rom", ");");
      w_.dedent();
      if (!direct) {
        w_.begin(y, " <= ");
        fitBits(y, "_rom", c.romElemType, 0, c.romElemType, type(c.output));
        w_.put(";").end();
      }
    }
    if (!s.clocked) return;
    line("process (clk)");
    line("begin");
    w_.indent();
    line("if rising_edge(clk) then");
    w_.indent();
    line("if ce = '1' then");
    w_.indent();
    for (int id : s.cells) {
      const Cell& c = cell(id);
      if (c.kind != CellKind::Reg) continue;
      if (c.inputs.size() < 2) {
        line(name(c.output), " <= ", In{c, 0}, ";");
        continue;
      }
      line("if ", In{c, 1}, " /= 0 then");
      w_.indent();
      line(name(c.output), " <= ", In{c, 0}, ";");
      w_.dedent();
      line("end if;");
    }
    w_.dedent();
    line("end if;");
    w_.dedent();
    line("end if;");
    w_.dedent();
    line("end process;");
  }

  void nodeEntity(const dp::DpNode& n) {
    const hdl::Scope& s = p_.scopes[static_cast<size_t>(n.id)];
    const std::string& label = labels_[static_cast<size_t>(n.id)];
    const bool hasPorts = s.clocked || !s.inputs.empty() || !s.outputs.empty();
    beginEntity(hasPorts, top_, "_", label);
    if (s.clocked) {
      port("clk : in std_logic");
      port("ce  : in std_logic");
    }
    for (int net : s.inputs) port(name(net), " : in ", type(net));
    for (int net : s.outputs) port(name(net), "_out : out ", type(net));
    endEntity(hasPorts, top_, "_", label);
    line("architecture rtl of ", top_, "_", label, " is");
    w_.indent();
    declareCells(s);
    w_.dedent();
    line("begin");
    w_.indent();
    printCells(s);
    for (int net : s.outputs) line(name(net), "_out <= ", name(net), ";");
    w_.dedent();
    line("end architecture rtl;");
    w_.blank();
  }

  void topEntity() {
    beginEntity(true, top_);
    port("clk : in std_logic");
    port("ce  : in std_logic");
    for (size_t i = dataInputs(); i < m_.inputPorts.size(); ++i) port(sanitize(m_.inputNames[i]), " : in std_logic");
    for (size_t i = 0; i < dataInputs(); ++i) port(name(m_.inputPorts[i]), " : in ", type(m_.inputPorts[i]));
    for (size_t i = 0; i < p_.ports.size(); ++i) port(outputs_[i], " : out ", type(p_.ports[i]));
    endEntity(true, top_);

    // Signals: every net a node exports, the controls as numeric bits, and
    // the top level's own cells.
    line("architecture rtl of ", top_, " is");
    w_.indent();
    for (int net : p_.exported) line("signal ", name(net), " : ", type(net), ";");
    for (size_t i = dataInputs(); i < m_.inputPorts.size(); ++i) {
      line("signal ", name(m_.inputPorts[i]), " : ", type(m_.inputPorts[i]), ";");
    }
    declareCells(p_.top());
    w_.dedent();
    line("begin");
    w_.indent();
    for (size_t i = dataInputs(); i < m_.inputPorts.size(); ++i) {
      line(name(m_.inputPorts[i]), " <= \"1\" when ", sanitize(m_.inputNames[i]), " = '1' else \"0\";");
    }
    for (const auto& n : dp_.nodes) {
      const hdl::Scope& s = p_.scopes[static_cast<size_t>(n.id)];
      const std::string& label = labels_[static_cast<size_t>(n.id)];
      if (!s.clocked && s.inputs.empty() && s.outputs.empty()) {
        line("u_", label, " : entity work.", top_, "_", label, ";");
        continue;
      }
      line("u_", label, " : entity work.", top_, "_", label);
      w_.indent();
      w_.begin("port map (");
      firstItem_ = true;
      if (s.clocked) assoc("clk => clk, ce => ce");
      for (int net : s.inputs) assoc(name(net), " => ", name(net));
      for (int net : s.outputs) assoc(name(net), "_out => ", name(net));
      w_.put(");").end();
      w_.dedent();
    }
    printCells(p_.top());
    for (size_t i = 0; i < p_.ports.size(); ++i) {
      const int net = p_.ports[i];
      line(outputs_[i], " <= ", Fit{p_.refs[static_cast<size_t>(net)], type(net)}, ";");
    }
    w_.dedent();
    line("end architecture rtl;");
  }
};

} // namespace

std::string emitDesign(const dp::DataPath& dp, const rtl::Module& module, const hlir::KernelInfo& kernel) {
  faultpoint("vhdl.emit");
  Printer p(dp, module, kernel);
  return p.run();
}

} // namespace roccc::vhdl
