#include "rtl/from_dp.hpp"

#include <cassert>
#include <map>

#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::rtl {

using dp::DataPath;
using dp::DpOp;
using dp::DpValue;
using mir::Opcode;

namespace {

CellKind cellFor(Opcode op) {
  switch (op) {
    case Opcode::Add: return CellKind::Add;
    case Opcode::Sub: return CellKind::Sub;
    case Opcode::Mul: return CellKind::Mul;
    case Opcode::Neg: return CellKind::Neg;
    case Opcode::And: return CellKind::And;
    case Opcode::Or: return CellKind::Or;
    case Opcode::Xor: return CellKind::Xor;
    case Opcode::Not: return CellKind::Not;
    case Opcode::Shl: return CellKind::Shl;
    case Opcode::Shr: return CellKind::Shr;
    case Opcode::Seq: return CellKind::Eq;
    case Opcode::Sne: return CellKind::Ne;
    case Opcode::Slt: return CellKind::Lt;
    case Opcode::Sle: return CellKind::Le;
    case Opcode::Sgt: return CellKind::Gt;
    case Opcode::Sge: return CellKind::Ge;
    case Opcode::Mux: return CellKind::Mux;
    case Opcode::Mov: return CellKind::Resize;
    case Opcode::Cast: return CellKind::Resize;
    default:
      throw InternalCompilerError(
          fmt("rtl: opcode '%0' reached cell lowering without a direct cell mapping",
              mir::opcodeName(op)));
  }
}

class Lowering {
 public:
  Lowering(const DataPath& dp, Module& out, DiagEngine& diags) : dp_(dp), out_(out), diags_(diags) {}

  bool run() {
    out_ = Module{};
    out_.name = dp_.name;
    const size_t valueCount = dp_.values.size();
    baseNet_.assign(valueCount, -1);
    defStage_.assign(valueCount, -1);
    isConst_.assign(valueCount, 0);
    staged_.assign(valueCount, {});
    out_.latency = dp_.stageCount - 1;

    // Input ports.
    for (const auto& port : dp_.inputs) {
      const DpValue& v = dp_.values[static_cast<size_t>(port.value)];
      const int net = out_.addNet(hwType(v), port.name);
      out_.inputPorts.push_back(net);
      out_.inputNames.push_back(port.name);
      define(v.id, net, 0);
    }

    // Feedback registers: create output nets up front so LPR values resolve.
    for (const auto& fb : dp_.feedbacks) {
      const int net = out_.addNet(fb.type, fb.name + "__reg");
      fbNet_[fb.name] = net;
    }

    // Valid chain: feedback registers must not latch until real data reaches
    // their stage (the pipeline-fill cycles would clobber the initial
    // value). The controller drives '__valid' high exactly when it issues
    // an iteration; one 1-bit register per stage delays it alongside the
    // data.
    if (!dp_.feedbacks.empty()) {
      const ScalarType bitTy = ScalarType::make(1, false);
      validAt_.push_back(out_.addNet(bitTy, "__valid"));
      out_.inputPorts.push_back(validAt_[0]);
      out_.inputNames.push_back("__valid");
      for (int s = 1; s < dp_.stageCount; ++s) {
        const int net = out_.addNet(bitTy, fmt("__valid_s%0", s));
        cell(CellKind::Reg, {validAt_.back()}, net);
        validAt_.push_back(net);
      }
    }

    // Ops in dependency order. The elaboration loop is the RTL layer's hot
    // path (cell count scales with unroll factor), so it carries a deadline
    // checkpoint.
    for (int oi : topoOrder()) {
      budgetCheckpoint("rtl-elaborate");
      lowerOp(dp_.ops[static_cast<size_t>(oi)]);
      if (failed_) return false;
    }
    owner_ = -1;

    // Close the feedback loops; each register is gated by the valid bit of
    // its stage.
    for (const auto& fb : dp_.feedbacks) {
      const int d = netAt(fb.snxValue, fb.stage);
      const int resized = resizeTo(d, fb.type, fb.name + "__nxt");
      const int en = validAt_.at(static_cast<size_t>(fb.stage));
      const int reg = cell(CellKind::Reg, {resized, en}, fbNet_.at(fb.name));
      out_.cells[static_cast<size_t>(reg)].imm = fb.initial;
    }

    // Output ports, all delivered at the final stage.
    const int finalStage = dp_.stageCount - 1;
    for (size_t p = 0; p < dp_.outputs.size(); ++p) {
      const auto& port = dp_.outputs[p];
      const int net = netAt(port.value, finalStage);
      const int resized = resizeTo(net, port.type, port.name);
      out_.outputPorts.push_back(resized);
      out_.outputNames.push_back(port.name);
    }
    // Feedback state taps.
    for (const auto& fb : dp_.feedbacks) {
      out_.outputPorts.push_back(fbNet_.at(fb.name));
      out_.outputNames.push_back(fb.name + "__fb");
    }

    std::vector<std::string> errors;
    if (!out_.verify(errors)) {
      for (const auto& e : errors) diags_.error({}, "datapath module: " + e);
      return false;
    }
    return true;
  }

 private:
  const DataPath& dp_;
  Module& out_;
  DiagEngine& diags_;
  bool failed_ = false;

  // Dense per-value tables, indexed by value id; -1 = not yet defined.
  std::vector<int> baseNet_;  ///< net at the value's def stage
  std::vector<int> defStage_; ///< def stage
  std::vector<char> isConst_; ///< constant (stage-free)
  /// Pipeline-register nets: staged_[v][k] carries v during stage
  /// defStage_[v] + 1 + k. A chain is always built stage by stage, so it
  /// is a dense prefix.
  std::vector<std::vector<int>> staged_;
  std::map<std::string, int> fbNet_;
  std::vector<int> validAt_; ///< valid net per stage (only when feedbacks exist)
  int owner_ = -1; ///< dp node the cells being added belong to (-1: top level)

  /// Adds a cell owned by `owner_`.
  int cell(CellKind kind, std::vector<int> inputs, int output) {
    const int id = out_.addCell(kind, std::move(inputs), output);
    out_.cells[static_cast<size_t>(id)].node = owner_;
    return id;
  }

  void define(int valueId, int net, int stage) {
    baseNet_[static_cast<size_t>(valueId)] = net;
    defStage_[static_cast<size_t>(valueId)] = stage;
  }

  int baseNetOf(int valueId) const {
    const int net = baseNet_[static_cast<size_t>(valueId)];
    if (net < 0) {
      throw InternalCompilerError(fmt("rtl: value %0 used before its definition", valueId));
    }
    return net;
  }

  ScalarType hwType(const DpValue& v) const { return ScalarType::make(v.width, v.isSigned); }

  std::vector<int> topoOrder() const {
    std::vector<int> indeg(dp_.ops.size(), 0);
    std::vector<std::vector<int>> consumers(dp_.values.size());
    for (size_t oi = 0; oi < dp_.ops.size(); ++oi) {
      for (int v : dp_.ops[oi].operands) {
        if (dp_.values[static_cast<size_t>(v)].def >= 0) ++indeg[oi];
        consumers[static_cast<size_t>(v)].push_back(static_cast<int>(oi));
      }
    }
    std::vector<int> ready, order;
    for (size_t oi = 0; oi < dp_.ops.size(); ++oi) {
      if (indeg[oi] == 0) ready.push_back(static_cast<int>(oi));
    }
    while (!ready.empty()) {
      const int oi = ready.back();
      ready.pop_back();
      order.push_back(oi);
      const int res = dp_.ops[static_cast<size_t>(oi)].result;
      if (res < 0) continue;
      for (int c : consumers[static_cast<size_t>(res)]) {
        if (--indeg[static_cast<size_t>(c)] == 0) ready.push_back(c);
      }
    }
    return order;
  }

  int resizeTo(int net, ScalarType t, const std::string& name) {
    if (out_.nets[static_cast<size_t>(net)].type == t) return net;
    const int r = out_.addNet(t, name);
    cell(CellKind::Resize, {net}, r);
    return r;
  }

  /// Net carrying `value` during `stage`: the base net, advanced through a
  /// pipeline-register chain when the consumer sits in a later stage. The
  /// chain belongs to the node whose op produces the value (input ports:
  /// the top level).
  int netAt(int valueId, int stage) {
    const size_t vi = static_cast<size_t>(valueId);
    const int base = baseNetOf(valueId);
    if (isConst_[vi]) return base; // constants are stage-free
    const int def = defStage_[vi];
    if (stage <= def) return base;
    std::vector<int>& chain = staged_[vi];
    const size_t depth = static_cast<size_t>(stage - def);
    if (depth <= chain.size()) return chain[depth - 1];
    // Extend the register chain one stage at a time up to `stage`.
    const DpValue& v = dp_.values[vi];
    const int consumer = owner_;
    owner_ = v.def >= 0 ? dp_.ops[static_cast<size_t>(v.def)].node : -1;
    for (size_t k = chain.size(); k < depth; ++k) {
      const int prev = k == 0 ? base : chain[k - 1];
      const int net = out_.addNet(out_.nets[static_cast<size_t>(prev)].type,
                                  fmt("%0_s%1", v.name.empty() ? fmt("t%0", v.id) : v.name,
                                      def + 1 + static_cast<int>(k)));
      cell(CellKind::Reg, {prev}, net);
      chain.push_back(net);
    }
    owner_ = consumer;
    return chain.back();
  }

  void lowerOp(const DpOp& o) {
    owner_ = o.node;
    switch (o.op) {
      case Opcode::Ldc: {
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        const int net = out_.addConst(Value::fromInt(hwType(v), o.imm).toInt(), hwType(v),
                                      v.name.empty() ? fmt("c%0", o.imm) : v.name);
        out_.cells[static_cast<size_t>(out_.nets[static_cast<size_t>(net)].driver)].node = o.node;
        define(o.result, net, 0);
        isConst_[static_cast<size_t>(o.result)] = 1;
        return;
      }
      case Opcode::Lpr: {
        define(o.result, fbNet_.at(o.symbol), o.stage);
        return;
      }
      case Opcode::Lut: {
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        const int addr = operandNet(o, 0);
        const int net = out_.addNet(hwType(v), resultName(o));
        Cell& rom = out_.cells[static_cast<size_t>(cell(CellKind::Rom, {addr}, net))];
        for (const auto& t : dp_.tables) {
          if (t.name == o.symbol) {
            rom.romData = t.values;
            rom.romElemType = t.elemType;
          }
        }
        rom.romName = o.symbol;
        define(o.result, net, o.stage);
        return;
      }
      case Opcode::BitSel: {
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        const DpValue& src = dp_.values[static_cast<size_t>(o.operands[0])];
        const int full = resizeTo(operandNet(o, 0), src.declared, src.name + "_full");
        const int net = out_.addNet(hwType(v), resultName(o));
        Cell& slice = out_.cells[static_cast<size_t>(cell(CellKind::Slice, {full}, net))];
        slice.aux0 = o.aux0;
        slice.aux1 = o.aux1;
        define(o.result, net, o.stage);
        return;
      }
      case Opcode::BitCat: {
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        const DpValue& hi = dp_.values[static_cast<size_t>(o.operands[0])];
        const DpValue& lo = dp_.values[static_cast<size_t>(o.operands[1])];
        const int hiNet = resizeTo(operandNet(o, 0), hi.declared, hi.name + "_full");
        const int loNet = resizeTo(operandNet(o, 1), lo.declared, lo.name + "_full");
        const int net = out_.addNet(hwType(v), resultName(o));
        cell(CellKind::Concat, {hiNet, loNet}, net);
        define(o.result, net, o.stage);
        return;
      }
      default: {
        if (o.result < 0) return; // Out/Snx carry no op here
        const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
        std::vector<int> ins;
        for (size_t k = 0; k < o.operands.size(); ++k) ins.push_back(operandNet(o, k));
        const int net = out_.addNet(hwType(v), resultName(o));
        cell(cellFor(o.op), ins, net);
        define(o.result, net, o.stage);
        return;
      }
    }
  }

  std::string resultName(const DpOp& o) const {
    const DpValue& v = dp_.values[static_cast<size_t>(o.result)];
    return v.name.empty() ? fmt("t%0", v.id) : v.name;
  }

  int operandNet(const DpOp& o, size_t k) {
    return netAt(o.operands[k], o.stage);
  }
};

} // namespace

bool buildDatapathModule(const DataPath& dp, Module& out, DiagEngine& diags) {
  faultpoint("rtl.elaborate");
  Lowering l(dp, out, diags);
  return l.run();
}

} // namespace roccc::rtl
