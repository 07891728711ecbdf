#include "vhdl/verilog.hpp"

#include <charconv>

#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "vhdl/layout.hpp"

namespace roccc::verilog {

using dp::DataPath;
using dp::DpOp;
using dp::DpValue;
using mir::Opcode;

namespace {

using hdl::addrBits;
using hdl::sanitize;

/// Lower-case hex digits of `bits`, no prefix (as `os << std::hex` prints).
std::string hex(uint64_t bits) {
  char buf[16];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, bits, 16).ptr);
}

class Emitter {
 public:
  Emitter(const DataPath& dp, const hlir::KernelInfo& kernel)
      : dp_(dp), kernel_(kernel), layout_(hdl::layoutDesign(dp)) {}

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
  const DataPath& dp_;
  const hlir::KernelInfo& kernel_;
  const hdl::DesignLayout layout_;
  IndentWriter w_;

  const std::string& valueName(int vid) const { return layout_.valueNames[static_cast<size_t>(vid)]; }

  int widthOf(int vid) const { return dp_.values[static_cast<size_t>(vid)].width; }

  bool isConstValue(int vid) const { return hdl::isConstValue(dp_, vid); }

  /// Reference to `vid`, extended/truncated to `W` honoring the value's own
  /// signedness; emits pure structural bit manipulation.
  std::string cvt(int vid, int W, const std::string& nameOverride = "") const {
    const DpValue& v = dp_.values[static_cast<size_t>(vid)];
    if (isConstValue(vid)) {
      const int64_t c = dp_.ops[static_cast<size_t>(v.def)].imm;
      const uint64_t bits = Value::fromInt(ScalarType::make(W, v.isSigned), c).bits();
      return fmt("%0'h%1", W, hex(bits));
    }
    const std::string base = nameOverride.empty() ? valueName(vid) : nameOverride;
    const int w = v.width;
    if (w == W) return base;
    if (w > W) return fmt("%0[%1:0]", base, W - 1);
    if (v.isSigned) return fmt("{{%0{%1[%2]}}, %1}", W - w, base, w - 1);
    return fmt("{{%0{1'b0}}, %1}", W - w, base);
  }

  std::string nodeModuleName(const dp::DpNode& n) const {
    return sanitize(dp_.name) + "_" + sanitize(n.label);
  }

  void romModules() {
    for (const auto& t : dp_.tables) {
      const std::string name = sanitize(dp_.name) + "_" + sanitize(t.name) + "_rom";
      const int ab = addrBits(t.values.size());
      const int dw = t.elemType.width;
      w_.line(fmt("module %0(input wire [%1:0] addr, output reg [%2:0] data);", name, ab - 1, dw - 1));
      w_.indent();
      w_.line("always @* begin");
      w_.indent();
      w_.line("case (addr)");
      w_.indent();
      for (size_t i = 0; i < t.values.size(); ++i) {
        const uint64_t bits = Value::fromInt(t.elemType, t.values[i]).bits();
        w_.line(fmt("%0'd%1: data = %2'h%3;", ab, i, dw, hex(bits)));
      }
      w_.line(fmt("default: data = %0'h0;", dw));
      w_.dedent();
      w_.line("endcase");
      w_.dedent();
      w_.line("end");
      w_.dedent();
      w_.line("endmodule");
      w_.blank();
    }
  }

  void nodeModule(const dp::DpNode& n) {
    const hdl::NodeIO& io = layout_.nodes[static_cast<size_t>(n.id)];
    const bool clocked = io.clocked();
    std::vector<std::string> ports;
    if (clocked) {
      ports.push_back("input wire clk");
      ports.push_back("input wire ce");
    }
    for (const auto& in : io.inputs) {
      ports.push_back(fmt("input wire [%0:0] %1", widthOf(in.value) - 1, valueName(in.value)));
    }
    for (int vid : io.outputs) {
      ports.push_back(fmt("output wire [%0:0] %1_out", widthOf(vid) - 1, valueName(vid)));
    }
    w_.line("module " + nodeModuleName(n) + "(" + join(ports, ", ") + ");");
    w_.indent();

    for (int oi : n.ops) {
      const DpOp& o = dp_.ops[static_cast<size_t>(oi)];
      if (o.result < 0 || o.op == Opcode::Ldc) continue;
      w_.line(fmt("wire [%0:0] %1;", widthOf(o.result) - 1, valueName(o.result)));
    }
    // Node-internal staged copies.
    for (const auto& c : io.copies) {
      w_.line(fmt("reg [%0:0] %1_s%2;", widthOf(c.value) - 1, valueName(c.value), c.stage));
    }

    // Lookup-table instantiations.
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
      w_.line(fmt("wire [%0:0] %1_romout;", (table ? table->elemType.width : 16) - 1,
                  valueName(o.result)));
      w_.line(fmt("%0 u_lut%1(.addr(%2), .data(%3_romout));", romName, lutInst++,
                  operandRef(n, o, o.operands[0], ab), valueName(o.result)));
      // The value may be narrower than the stored element (range-narrowed).
      w_.line(fmt("assign %0 = %1;", valueName(o.result),
                  table && table->elemType.width != widthOf(o.result)
                      ? fmt("%0_romout[%1:0]", valueName(o.result), widthOf(o.result) - 1)
                      : valueName(o.result) + "_romout"));
    }

    for (int oi : n.ops) emitOp(n, dp_.ops[static_cast<size_t>(oi)]);

    if (clocked) {
      w_.line("always @(posedge clk) begin");
      w_.indent();
      w_.line("if (ce) begin");
      w_.indent();
      for (const auto& c : io.copies) {
        const std::string from = c.stage - 1 == hdl::defStage(dp_, c.value)
                                     ? valueName(c.value)
                                     : fmt("%0_s%1", valueName(c.value), c.stage - 1);
        w_.line(fmt("%0_s%1 <= %2;", valueName(c.value), c.stage, from));
      }
      w_.dedent();
      w_.line("end");
      w_.dedent();
      w_.line("end");
    }
    for (int vid : io.outputs) {
      w_.line(fmt("assign %0_out = %0;", valueName(vid)));
    }
    w_.dedent();
    w_.line("endmodule");
    w_.blank();
  }

  /// Operand reference inside a node, stage-adjusted and width-converted.
  std::string operandRef(const dp::DpNode& n, const DpOp& o, int vid, int W) const {
    const DpValue& v = dp_.values[static_cast<size_t>(vid)];
    if (!isConstValue(vid) && v.def >= 0) {
      const DpOp& defOp = dp_.ops[static_cast<size_t>(v.def)];
      if (defOp.node == n.id && defOp.stage < o.stage) {
        return cvt(vid, W, fmt("%0_s%1", valueName(vid), o.stage));
      }
    }
    return cvt(vid, W);
  }

  void emitOp(const dp::DpNode& n, const DpOp& o) {
    if (o.op == Opcode::Ldc || o.op == Opcode::Lut) return;
    if (o.result < 0) return;
    const DpValue& r = dp_.values[static_cast<size_t>(o.result)];
    const std::string dst = valueName(o.result);
    const int W = r.width;
    auto in = [&](size_t k) { return operandRef(n, o, o.operands[k], W); };
    auto signedIn = [&](size_t k) { return "$signed(" + operandRef(n, o, o.operands[k], W) + ")"; };
    switch (o.op) {
      case Opcode::Add:
        w_.line(fmt("assign %0 = %1 + %2;", dst, in(0), in(1)));
        return;
      case Opcode::Sub:
        w_.line(fmt("assign %0 = %1 - %2;", dst, in(0), in(1)));
        return;
      case Opcode::Mul:
        w_.line(fmt("assign %0 = %1 * %2;", dst, in(0), in(1)));
        return;
      case Opcode::Neg:
        w_.line(fmt("assign %0 = -%1;", dst, in(0)));
        return;
      case Opcode::And:
        w_.line(fmt("assign %0 = %1 & %2;", dst, in(0), in(1)));
        return;
      case Opcode::Or:
        w_.line(fmt("assign %0 = %1 | %2;", dst, in(0), in(1)));
        return;
      case Opcode::Xor:
        w_.line(fmt("assign %0 = %1 ^ %2;", dst, in(0), in(1)));
        return;
      case Opcode::Not:
        w_.line(fmt("assign %0 = ~%1;", dst, in(0)));
        return;
      case Opcode::Shl:
        w_.line(fmt("assign %0 = %1 << %2;", dst, in(0), operandRef(n, o, o.operands[1], 6)));
        return;
      case Opcode::Shr: {
        const DpValue& a = dp_.values[static_cast<size_t>(o.operands[0])];
        if (a.isSigned) {
          w_.line(fmt("assign %0 = %1 >>> %2;", dst, signedIn(0), operandRef(n, o, o.operands[1], 6)));
        } else {
          w_.line(fmt("assign %0 = %1 >> %2;", dst, in(0), operandRef(n, o, o.operands[1], 6)));
        }
        return;
      }
      case Opcode::Seq:
      case Opcode::Sne:
      case Opcode::Slt:
      case Opcode::Sle:
      case Opcode::Sgt:
      case Opcode::Sge: {
        const char* rel = o.op == Opcode::Seq   ? "=="
                          : o.op == Opcode::Sne ? "!="
                          : o.op == Opcode::Slt ? "<"
                          : o.op == Opcode::Sle ? "<="
                          : o.op == Opcode::Sgt ? ">"
                                                : ">=";
        const DpValue& a = dp_.values[static_cast<size_t>(o.operands[0])];
        const DpValue& b = dp_.values[static_cast<size_t>(o.operands[1])];
        const int cw = std::max(a.width, b.width) + 1;
        // Compare at a signed common width (the extension honors each
        // operand's own signedness, so the numeric compare is exact).
        w_.line(fmt("assign %0 = ($signed(%1) %2 $signed(%3)) ? 1'b1 : 1'b0;", dst,
                    operandRef(n, o, o.operands[0], cw), rel, operandRef(n, o, o.operands[1], cw)));
        return;
      }
      case Opcode::Mux:
        w_.line(fmt("assign %0 = %1 ? %2 : %3;", dst, operandRef(n, o, o.operands[0], 1), in(1),
                    in(2)));
        return;
      case Opcode::Mov:
      case Opcode::Cast:
        w_.line(fmt("assign %0 = %1;", dst, in(0)));
        return;
      case Opcode::BitSel: {
        const DpValue& src = dp_.values[static_cast<size_t>(o.operands[0])];
        w_.line(fmt("assign %0 = (%1) >> %2;", dst,
                    operandRef(n, o, o.operands[0], src.declared.width), o.aux1));
        return;
      }
      case Opcode::BitCat: {
        const DpValue& hi = dp_.values[static_cast<size_t>(o.operands[0])];
        const DpValue& lo = dp_.values[static_cast<size_t>(o.operands[1])];
        w_.line(fmt("assign %0 = {%1, %2};", dst, operandRef(n, o, o.operands[0], hi.declared.width),
                    operandRef(n, o, o.operands[1], lo.declared.width)));
        return;
      }
      case Opcode::Lpr:
        return; // arrives as a module input
      default:
        throw InternalCompilerError(
            fmt("verilog: op '%0' has no Verilog form", mir::opcodeName(o.op)));
    }
  }

  void topModule() {
    const std::string name = sanitize(dp_.name);
    std::vector<std::string> ports = {"input wire clk", "input wire ce"};
    if (!dp_.feedbacks.empty()) ports.push_back("input wire valid");
    for (const auto& p : dp_.inputs) {
      ports.push_back(fmt("input wire [%0:0] %1", p.type.width - 1, sanitize(p.name)));
    }
    for (const auto& p : dp_.outputs) {
      ports.push_back(fmt("output wire [%0:0] %1", p.type.width - 1, sanitize(p.name)));
    }
    w_.line("module " + name + "(" + join(ports, ", ") + ");");
    w_.indent();

    // Signals: cross-node values, staged copies, feedback registers.
    for (int vid : layout_.topSignals) {
      w_.line(fmt("wire [%0:0] %1;", widthOf(vid) - 1, valueName(vid)));
    }
    for (const auto& c : layout_.topChains) {
      w_.line(fmt("reg [%0:0] %1_p%2;", widthOf(c.value) - 1, valueName(c.value), c.stage));
    }
    for (const auto& fb : dp_.feedbacks) {
      w_.line(fmt("reg [%0:0] %1_fbreg = %0'd%2;", fb.type.width - 1, sanitize(fb.name),
                  Value::fromInt(ScalarType::make(fb.type.width, false), fb.initial).toUnsigned()));
    }
    if (!dp_.feedbacks.empty()) {
      for (int st = 1; st < dp_.stageCount; ++st) {
        w_.line(fmt("reg valid_s%0 = 1'b0;", st));
      }
    }

    // Node instantiations.
    for (const auto& n : dp_.nodes) {
      const hdl::NodeIO& io = layout_.nodes[static_cast<size_t>(n.id)];
      std::vector<std::string> assoc;
      if (io.clocked()) {
        assoc.push_back(".clk(clk)");
        assoc.push_back(".ce(ce)");
      }
      for (const auto& in : io.inputs) {
        assoc.push_back(fmt(".%0(%1)", valueName(in.value), topOperandRef(in)));
      }
      for (int vid : io.outputs) {
        assoc.push_back(fmt(".%0_out(%0)", valueName(vid)));
      }
      w_.line(fmt("%0 u_%1(%2);", nodeModuleName(n), sanitize(n.label), join(assoc, ", ")));
    }

    // Registers.
    w_.line("always @(posedge clk) begin");
    w_.indent();
    w_.line("if (ce) begin");
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
      w_.line(fmt("if (%0) %1_fbreg <= %2;", gate, sanitize(fb.name),
                  cvt(fb.snxValue, fb.type.width)));
    }
    w_.dedent();
    w_.line("end");
    w_.dedent();
    w_.line("end");

    for (const auto& fb : dp_.feedbacks) {
      if (fb.lprValue >= 0) {
        w_.line(fmt("assign %0 = %1_fbreg[%2:0];", valueName(fb.lprValue), sanitize(fb.name),
                    widthOf(fb.lprValue) - 1));
      }
    }
    for (size_t p = 0; p < dp_.outputs.size(); ++p) {
      const auto& port = dp_.outputs[p];
      const DpValue& v = dp_.values[static_cast<size_t>(port.value)];
      const int finalStage = dp_.stageCount - 1;
      std::string src;
      if (finalStage > hdl::defStage(dp_, port.value) &&
          layout_.topChainEnd[static_cast<size_t>(port.value)] >= finalStage) {
        src = cvt(port.value, port.type.width, fmt("%0_p%1", valueName(port.value), finalStage));
      } else {
        src = cvt(port.value, port.type.width,
                  v.inputPort >= 0 ? sanitize(dp_.inputs[static_cast<size_t>(v.inputPort)].name)
                                   : std::string());
      }
      w_.line(fmt("assign %0 = %1;", sanitize(port.name), src));
    }
    w_.dedent();
    w_.line("endmodule");
  }

  std::string topValueRef(int vid) const {
    const DpValue& v = dp_.values[static_cast<size_t>(vid)];
    if (v.inputPort >= 0) return sanitize(dp_.inputs[static_cast<size_t>(v.inputPort)].name);
    return valueName(vid);
  }

  std::string topOperandRef(const hdl::NodeInput& in) const {
    if (in.firstUseStage <= hdl::defStage(dp_, in.value)) return topValueRef(in.value);
    return fmt("%0_p%1", valueName(in.value), in.firstUseStage);
  }
};

} // namespace

std::string emitDesign(const DataPath& dp, const hlir::KernelInfo& kernel) {
  faultpoint("verilog.emit");
  Emitter e(dp, kernel);
  return e.run();
}

} // namespace roccc::verilog
