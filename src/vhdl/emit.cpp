#include "vhdl/emit.hpp"

#include <algorithm>

#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "vhdl/layout.hpp"

namespace roccc::vhdl {

using dp::DataPath;
using dp::DpOp;
using dp::DpValue;
using mir::Opcode;

namespace {

using hdl::addrBits;
using hdl::sanitize;

class Emitter {
 public:
  Emitter(const DataPath& dp, const rtl::Module& module, const hlir::KernelInfo& kernel)
      : dp_(dp), module_(module), kernel_(kernel), layout_(hdl::layoutDesign(dp)) {}

  std::string run() {
    header();
    romEntities();
    for (const auto& n : dp_.nodes) nodeEntity(n);
    topEntity();
    return w_.str();
  }

 private:
  const DataPath& dp_;
  const rtl::Module& module_;
  const hlir::KernelInfo& kernel_;
  const hdl::DesignLayout layout_;
  IndentWriter w_;

  // --- naming -------------------------------------------------------------

  const std::string& valueName(int vid) const { return layout_.valueNames[static_cast<size_t>(vid)]; }

  std::string typeOf(int vid) const {
    const DpValue& v = dp_.values[static_cast<size_t>(vid)];
    return fmt("%0(%1 downto 0)", v.isSigned ? "signed" : "unsigned", v.width - 1);
  }

  bool isConstValue(int vid) const { return hdl::isConstValue(dp_, vid); }

  /// Renders a reference to `vid` converted to (width, signedness).
  std::string cvt(int vid, int width, bool wantSigned) const {
    const DpValue& v = dp_.values[static_cast<size_t>(vid)];
    if (isConstValue(vid)) {
      const int64_t c = dp_.ops[static_cast<size_t>(v.def)].imm;
      return fmt("to_%0(%1, %2)", wantSigned ? "signed" : "unsigned",
                 Value::fromInt(ScalarType::make(width, wantSigned), c).toInt(), width);
    }
    std::string r = valueName(vid);
    if (v.isSigned == wantSigned) {
      if (v.width == width) return r;
      return fmt("resize(%0, %1)", r, width);
    }
    // Resize in the source domain (correct extension), then reinterpret.
    return fmt("%0(resize(%1, %2))", wantSigned ? "signed" : "unsigned", r, width);
  }

  // --- sections ------------------------------------------------------------------

  void header() {
    w_.line("-- Generated by ROCCC (reproduction): RTL VHDL for kernel '" + kernel_.kernelName + "'");
    w_.line(fmt("-- data path: %0 nodes (%1 soft, %2 hard), %3 pipeline stages", dp_.nodes.size(),
                dp_.softNodeCount, dp_.hardNodeCount, dp_.stageCount));
    w_.line(fmt("-- netlist: %0 cells, %1 register bits", module_.cells.size(), module_.registerBits()));
    w_.blank();
  }

  void libraryClause() {
    w_.line("library ieee;");
    w_.line("use ieee.std_logic_1164.all;");
    w_.line("use ieee.numeric_std.all;");
    w_.blank();
  }

  void romEntities() {
    for (const auto& t : dp_.tables) {
      const std::string name = sanitize(dp_.name) + "_" + sanitize(t.name) + "_rom";
      const int ab = addrBits(t.values.size());
      const int dw = t.elemType.width;
      libraryClause();
      w_.line("entity " + name + " is");
      w_.indent();
      w_.line("port (");
      w_.indent();
      w_.line(fmt("addr : in unsigned(%0 downto 0);", ab - 1));
      w_.line(fmt("data : out %0(%1 downto 0)", t.elemType.isSigned ? "signed" : "unsigned", dw - 1));
      w_.dedent();
      w_.line(");");
      w_.dedent();
      w_.line("end entity " + name + ";");
      w_.blank();
      w_.line("architecture rtl of " + name + " is");
      w_.indent();
      w_.line(fmt("type rom_t is array (0 to %0) of %1(%2 downto 0);",
                  t.values.size() - 1, t.elemType.isSigned ? "signed" : "unsigned", dw - 1));
      std::vector<std::string> init;
      for (int64_t v : t.values) {
        init.push_back(fmt("to_%0(%1, %2)", t.elemType.isSigned ? "signed" : "unsigned",
                           Value::fromInt(t.elemType, v).toInt(), dw));
      }
      w_.line("constant rom : rom_t := (" + join(init, ", ") + ");");
      w_.dedent();
      w_.line("begin");
      w_.indent();
      w_.line(fmt("data <= rom(to_integer(addr)) when to_integer(addr) <= %0 else rom(%0);",
                  t.values.size() - 1));
      w_.dedent();
      w_.line("end architecture rtl;");
      w_.blank();
    }
  }

  std::string nodeEntityName(const dp::DpNode& n) const {
    return sanitize(dp_.name) + "_" + sanitize(n.label);
  }

  void nodeEntity(const dp::DpNode& n) {
    const hdl::NodeIO& io = layout_.nodes[static_cast<size_t>(n.id)];
    const bool clocked = io.clocked();
    const std::string name = nodeEntityName(n);
    libraryClause();
    w_.line("entity " + name + " is");
    w_.indent();
    w_.line("port (");
    w_.indent();
    if (clocked) {
      w_.line("clk : in std_logic;");
      w_.line("ce  : in std_logic;");
    }
    std::vector<std::string> portLines;
    for (const auto& in : io.inputs) portLines.push_back(valueName(in.value) + " : in " + typeOf(in.value));
    for (int vid : io.outputs) portLines.push_back(valueName(vid) + "_out : out " + typeOf(vid));
    for (size_t i = 0; i < portLines.size(); ++i) {
      w_.line(portLines[i] + (i + 1 < portLines.size() ? ";" : ""));
    }
    w_.dedent();
    w_.line(");");
    w_.dedent();
    w_.line("end entity " + name + ";");
    w_.blank();

    w_.line("architecture rtl of " + name + " is");
    w_.indent();
    // Internal signals: every produced value, plus staged copies for
    // node-internal stage crossings.
    for (int oi : n.ops) {
      const DpOp& o = dp_.ops[static_cast<size_t>(oi)];
      if (o.result < 0 || o.op == Opcode::Ldc) continue;
      w_.line("signal " + valueName(o.result) + " : " + typeOf(o.result) + ";");
    }
    for (const auto& c : io.copies) {
      w_.line(fmt("signal %0_s%1 : %2;", valueName(c.value), c.stage, typeOf(c.value)));
    }
    w_.dedent();
    w_.line("begin");
    w_.indent();

    // ROM component instantiations first (section 4.2.4: "A LUT instruction
    // invokes an instantiation of a lookup table component").
    int lutInst = 0;
    for (int oi : n.ops) {
      const DpOp& o = dp_.ops[static_cast<size_t>(oi)];
      if (o.op != Opcode::Lut) continue;
      const mir::FunctionIR::Table* table = nullptr;
      for (const auto& t : dp_.tables) {
        if (t.name == o.symbol) table = &t;
      }
      const int ab = addrBits(table ? table->values.size() : 2);
      const std::string romName = sanitize(dp_.name) + "_" + sanitize(o.symbol) + "_rom";
      w_.line(fmt("u_lut%0 : entity work.%1", lutInst++, romName));
      w_.indent();
      w_.line(fmt("port map (addr => %0, data => %1);", cvt(o.operands[0], ab, false),
                  valueName(o.result)));
      w_.dedent();
    }

    // Combinational statements.
    for (int oi : n.ops) {
      const DpOp& o = dp_.ops[static_cast<size_t>(oi)];
      emitOpStatement(n, o);
    }

    // Internal pipeline latches.
    if (clocked) {
      w_.line("process (clk)");
      w_.line("begin");
      w_.indent();
      w_.line("if rising_edge(clk) then");
      w_.indent();
      w_.line("if ce = '1' then");
      w_.indent();
      for (const auto& c : io.copies) {
        const std::string from = c.stage - 1 == hdl::defStage(dp_, c.value)
                                     ? valueName(c.value)
                                     : fmt("%0_s%1", valueName(c.value), c.stage - 1);
        w_.line(fmt("%0_s%1 <= %2;", valueName(c.value), c.stage, from));
      }
      w_.dedent();
      w_.line("end if;");
      w_.dedent();
      w_.line("end if;");
      w_.dedent();
      w_.line("end process;");
    }

    // Drive output ports.
    for (int vid : io.outputs) {
      w_.line(valueName(vid) + "_out <= " + valueName(vid) + ";");
    }
    w_.dedent();
    w_.line("end architecture rtl;");
    w_.blank();
  }

  /// Operand reference as seen by op `o` inside node `n`: the staged copy
  /// when the producer sits in an earlier stage of the same node.
  std::string operandRef(const dp::DpNode& n, const DpOp& o, int vid, int width, bool wantSigned) const {
    const DpValue& v = dp_.values[static_cast<size_t>(vid)];
    if (!isConstValue(vid) && v.def >= 0) {
      const DpOp& defOp = dp_.ops[static_cast<size_t>(v.def)];
      if (defOp.node == n.id && defOp.stage < o.stage) {
        // Reference the staged copy, converted like cvt().
        const std::string base = fmt("%0_s%1", valueName(vid), o.stage);
        if (v.isSigned == wantSigned) {
          return v.width == width ? base : fmt("resize(%0, %1)", base, width);
        }
        return fmt("%0(resize(%1, %2))", wantSigned ? "signed" : "unsigned", base, width);
      }
    }
    return cvt(vid, width, wantSigned);
  }

  void emitOpStatement(const dp::DpNode& n, const DpOp& o) {
    if (o.op == Opcode::Ldc || o.op == Opcode::Lut) return; // handled elsewhere
    if (o.result < 0) return;
    const DpValue& r = dp_.values[static_cast<size_t>(o.result)];
    const std::string dst = valueName(o.result);
    const int W = r.width;
    const bool S = r.isSigned;
    auto in = [&](size_t k) { return operandRef(n, o, o.operands[k], W, S); };
    auto inAt = [&](size_t k, int width, bool sgn) { return operandRef(n, o, o.operands[k], width, sgn); };
    switch (o.op) {
      case Opcode::Add:
        w_.line(fmt("%0 <= %1 + %2;", dst, in(0), in(1)));
        return;
      case Opcode::Sub:
        w_.line(fmt("%0 <= %1 - %2;", dst, in(0), in(1)));
        return;
      case Opcode::Mul:
        w_.line(fmt("%0 <= resize(%1 * %2, %3);", dst, in(0), in(1), W));
        return;
      case Opcode::Neg:
        w_.line(fmt("%0 <= resize(-%1, %2);", dst, inAt(0, W + 1, true), W));
        return;
      case Opcode::And:
        w_.line(fmt("%0 <= %1 and %2;", dst, in(0), in(1)));
        return;
      case Opcode::Or:
        w_.line(fmt("%0 <= %1 or %2;", dst, in(0), in(1)));
        return;
      case Opcode::Xor:
        w_.line(fmt("%0 <= %1 xor %2;", dst, in(0), in(1)));
        return;
      case Opcode::Not:
        w_.line(fmt("%0 <= not %1;", dst, in(0)));
        return;
      case Opcode::Shl:
        w_.line(fmt("%0 <= shift_left(%1, to_integer(%2));", dst, in(0), inAt(1, 6, false)));
        return;
      case Opcode::Shr:
        w_.line(fmt("%0 <= shift_right(%1, to_integer(%2));", dst, in(0), inAt(1, 6, false)));
        return;
      case Opcode::Seq:
      case Opcode::Sne:
      case Opcode::Slt:
      case Opcode::Sle:
      case Opcode::Sgt:
      case Opcode::Sge: {
        const char* rel = o.op == Opcode::Seq   ? "="
                          : o.op == Opcode::Sne ? "/="
                          : o.op == Opcode::Slt ? "<"
                          : o.op == Opcode::Sle ? "<="
                          : o.op == Opcode::Sgt ? ">"
                                                : ">=";
        // Compare at a common width wide enough for both operands.
        const DpValue& a = dp_.values[static_cast<size_t>(o.operands[0])];
        const DpValue& b = dp_.values[static_cast<size_t>(o.operands[1])];
        const bool sgn = a.isSigned || b.isSigned;
        const int cw = std::max(a.width, b.width) + 1;
        w_.line(fmt("%0 <= \"1\" when %1 %2 %3 else \"0\";", dst, inAt(0, cw, sgn), rel,
                    inAt(1, cw, sgn)));
        return;
      }
      case Opcode::Mux:
        w_.line(fmt("%0 <= %1 when %2 = 1 else %3;", dst, in(1), inAt(0, 1, false), in(2)));
        return;
      case Opcode::Mov:
      case Opcode::Cast:
        w_.line(fmt("%0 <= %1;", dst, in(0)));
        return;
      case Opcode::BitSel: {
        const DpValue& src = dp_.values[static_cast<size_t>(o.operands[0])];
        w_.line(fmt("%0 <= unsigned(std_logic_vector(%1(%2 downto %3)));", dst,
                    inAt(0, src.declared.width, src.declared.isSigned), o.aux0, o.aux1));
        return;
      }
      case Opcode::BitCat: {
        const DpValue& hi = dp_.values[static_cast<size_t>(o.operands[0])];
        const DpValue& lo = dp_.values[static_cast<size_t>(o.operands[1])];
        w_.line(fmt("%0 <= unsigned(std_logic_vector(%1) & std_logic_vector(%2));", dst,
                    inAt(0, hi.declared.width, false), inAt(1, lo.declared.width, false)));
        return;
      }
      case Opcode::Lpr:
        // The feedback register lives in the top entity; inside the node the
        // LPR value arrives as an input port — nothing to emit (the value
        // name *is* the port).
        return;
      default:
        throw InternalCompilerError(
            fmt("vhdl: op '%0' has no VHDL form", mir::opcodeName(o.op)));
    }
  }

  void topEntity() {
    const std::string name = sanitize(dp_.name);
    libraryClause();
    w_.line("entity " + name + " is");
    w_.indent();
    w_.line("port (");
    w_.indent();
    w_.line("clk : in std_logic;");
    w_.line("ce  : in std_logic;");
    if (!dp_.feedbacks.empty()) w_.line("valid : in std_logic;");
    std::vector<std::string> ports;
    for (const auto& p : dp_.inputs) {
      ports.push_back(fmt("%0 : in %1(%2 downto 0)", sanitize(p.name),
                          p.type.isSigned ? "signed" : "unsigned", p.type.width - 1));
    }
    for (const auto& p : dp_.outputs) {
      ports.push_back(fmt("%0 : out %1(%2 downto 0)", sanitize(p.name),
                          p.type.isSigned ? "signed" : "unsigned", p.type.width - 1));
    }
    for (size_t i = 0; i < ports.size(); ++i) {
      w_.line(ports[i] + (i + 1 < ports.size() ? ";" : ""));
    }
    w_.dedent();
    w_.line(");");
    w_.dedent();
    w_.line("end entity " + name + ";");
    w_.blank();

    w_.line("architecture rtl of " + name + " is");
    w_.indent();

    // Signals: node ports and the values they carry, cross-node pipeline
    // registers (a consumer node receives the operand at the consuming
    // op's stage), feedback registers.
    for (int vid : layout_.topSignals) {
      w_.line("signal " + valueName(vid) + " : " + typeOf(vid) + ";");
    }
    for (const auto& c : layout_.topChains) {
      w_.line(fmt("signal %0_p%1 : %2;", valueName(c.value), c.stage, typeOf(c.value)));
    }
    // Feedback registers and the valid chain gating them (they must not
    // latch until real data reaches their stage).
    for (const auto& fb : dp_.feedbacks) {
      w_.line(fmt("signal %0_reg : %1(%2 downto 0) := to_%1(%3, %2 + 1);", sanitize(fb.name),
                  fb.type.isSigned ? "signed" : "unsigned", fb.type.width - 1, fb.initial));
    }
    if (!dp_.feedbacks.empty()) {
      for (int st = 1; st < dp_.stageCount; ++st) {
        w_.line(fmt("signal valid_s%0 : std_logic := '0';", st));
      }
    }
    w_.dedent();
    w_.line("begin");
    w_.indent();

    // Node instantiations.
    for (const auto& n : dp_.nodes) {
      const hdl::NodeIO& io = layout_.nodes[static_cast<size_t>(n.id)];
      std::vector<std::string> assoc;
      if (io.clocked()) {
        assoc.push_back("clk => clk");
        assoc.push_back("ce => ce");
      }
      for (const auto& in : io.inputs) {
        assoc.push_back(valueName(in.value) + " => " + topOperandRef(in));
      }
      for (int vid : io.outputs) {
        assoc.push_back(valueName(vid) + "_out => " + valueName(vid));
      }
      w_.line(fmt("u_%0 : entity work.%1", sanitize(n.label), nodeEntityName(n)));
      w_.indent();
      w_.line("port map (" + join(assoc, ", ") + ");");
      w_.dedent();
    }

    // Pipeline + feedback register process.
    w_.line("process (clk)");
    w_.line("begin");
    w_.indent();
    w_.line("if rising_edge(clk) then");
    w_.indent();
    w_.line("if ce = '1' then");
    w_.indent();
    for (const auto& c : layout_.topChains) {
      const std::string from = c.stage - 1 == hdl::defStage(dp_, c.value)
                                   ? topValueRef(c.value)
                                   : fmt("%0_p%1", valueName(c.value), c.stage - 1);
      w_.line(fmt("%0_p%1 <= %2;", valueName(c.value), c.stage, from));
    }
    if (!dp_.feedbacks.empty()) {
      for (int st = 1; st < dp_.stageCount; ++st) {
        w_.line(fmt("valid_s%0 <= %1;", st, st == 1 ? std::string("valid") : fmt("valid_s%0", st - 1)));
      }
    }
    for (const auto& fb : dp_.feedbacks) {
      const std::string gate = fb.stage == 0 ? std::string("valid") : fmt("valid_s%0", fb.stage);
      w_.line(fmt("if %0 = '1' then", gate));
      w_.indent();
      w_.line(fmt("%0_reg <= %1;", sanitize(fb.name),
                  cvt(fb.snxValue, fb.type.width, fb.type.isSigned)));
      w_.dedent();
      w_.line("end if;");
    }
    w_.dedent();
    w_.line("end if;");
    w_.dedent();
    w_.line("end if;");
    w_.dedent();
    w_.line("end process;");

    // LPR values read the registers.
    for (const auto& fb : dp_.feedbacks) {
      if (fb.lprValue >= 0) {
        const DpValue& v = dp_.values[static_cast<size_t>(fb.lprValue)];
        w_.line(fmt("%0 <= %1%2_reg%3;", valueName(fb.lprValue),
                    v.isSigned == fb.type.isSigned ? "" : (v.isSigned ? "signed(" : "unsigned("),
                    sanitize(fb.name), v.isSigned == fb.type.isSigned ? "" : ")"));
      }
    }
    // Output ports.
    for (size_t p = 0; p < dp_.outputs.size(); ++p) {
      const auto& port = dp_.outputs[p];
      const DpValue& v = dp_.values[static_cast<size_t>(port.value)];
      const int finalStage = dp_.stageCount - 1;
      // Outputs are captured at the final stage: read the value's register
      // there when a chain reaches it.
      const bool chained = finalStage > hdl::defStage(dp_, port.value) &&
                           layout_.topChainEnd[static_cast<size_t>(port.value)] >= finalStage;
      const std::string src =
          chained ? fmt("%0_p%1", valueName(port.value), finalStage) : topValueRef(port.value);
      const std::string cast =
          v.isSigned == port.type.isSigned
              ? fmt("resize(%0, %1)", src, port.type.width)
              : fmt("%0(resize(%1, %2))", port.type.isSigned ? "signed" : "unsigned", src, port.type.width);
      w_.line(fmt("%0 <= %1;", sanitize(port.name), cast));
    }
    w_.dedent();
    w_.line("end architecture rtl;");
  }

  /// Reference to a value at top level: input port name, node output
  /// signal, or feedback register.
  std::string topValueRef(int vid) const {
    const DpValue& v = dp_.values[static_cast<size_t>(vid)];
    if (v.inputPort >= 0) return sanitize(dp_.inputs[static_cast<size_t>(v.inputPort)].name);
    return valueName(vid);
  }

  /// Operand binding for a node instantiation: the value, advanced through
  /// top-level chains to the node's earliest use stage.
  std::string topOperandRef(const hdl::NodeInput& in) const {
    if (in.firstUseStage <= hdl::defStage(dp_, in.value)) return topValueRef(in.value);
    return fmt("%0_p%1", valueName(in.value), in.firstUseStage);
  }
};

} // namespace

std::string emitDesign(const DataPath& dp, const rtl::Module& module, const hlir::KernelInfo& kernel) {
  faultpoint("vhdl.emit");
  Emitter e(dp, module, kernel);
  return e.run();
}

} // namespace roccc::vhdl
