#include "dp/eval.hpp"

#include <cassert>
#include <stdexcept>

#include "mir/exec.hpp"
#include "support/strings.hpp"

namespace roccc::dp {

EvalResult evaluate(const DataPath& dp, const std::vector<Value>& inputs,
                    const std::map<std::string, Value>& feedback) {
  if (inputs.size() != dp.inputs.size()) {
    throw std::runtime_error(fmt("dp eval: %0 inputs bound, %1 expected", inputs.size(), dp.inputs.size()));
  }
  std::vector<std::optional<Value>> values(dp.values.size());
  // Each value lives at its *inferred* hardware type.
  auto hwType = [&](const DpValue& v) { return ScalarType::make(v.width, v.isSigned); };

  for (size_t p = 0; p < dp.inputs.size(); ++p) {
    const DpValue& v = dp.values[static_cast<size_t>(dp.inputs[p].value)];
    values[static_cast<size_t>(v.id)] = inputs[p].convertTo(dp.inputs[p].type).convertTo(hwType(v));
  }

  EvalResult result;
  for (const auto& fb : dp.feedbacks) {
    const auto it = feedback.find(fb.name);
    result.nextFeedback[fb.name] =
        it != feedback.end() ? it->second.convertTo(fb.type) : Value::fromInt(fb.type, fb.initial);
  }

  // Topological evaluation: ops are stored in placement order, which is
  // topological per construction except pipe-node rewiring; do a simple
  // ready-loop to be safe.
  std::vector<char> done(dp.ops.size(), 0);
  // Scratch reused by every op: operand values and the instruction shim
  // that maps an op onto the shared semantics (evalPureOp reads op, type,
  // imm and aux fields only; Lut gets its table separately).
  std::vector<Value> ops;
  mir::Instr shim;
  size_t remaining = dp.ops.size();
  size_t guard = 0;
  while (remaining > 0) {
    if (++guard > dp.ops.size() + 2) throw std::runtime_error("dp eval: dependency cycle");
    for (size_t oi = 0; oi < dp.ops.size(); ++oi) {
      if (done[oi]) continue;
      const DpOp& o = dp.ops[oi];
      bool ready = true;
      for (int vid : o.operands) {
        if (!values[static_cast<size_t>(vid)]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      done[oi] = 1;
      --remaining;

      ops.clear();
      for (int vid : o.operands) ops.push_back(*values[static_cast<size_t>(vid)]);
      // Bit-pattern ops must see the declared operand widths: a narrowed
      // value holds the same number, but BitSel/BitCat index raw bits.
      if (o.op == mir::Opcode::BitSel || o.op == mir::Opcode::BitCat) {
        for (size_t k = 0; k < ops.size(); ++k) {
          ops[k] = ops[k].convertTo(dp.values[static_cast<size_t>(o.operands[k])].declared);
        }
      }

      if (o.op == mir::Opcode::Lpr) {
        const auto it = feedback.find(o.symbol);
        Value prev;
        for (const auto& fb : dp.feedbacks) {
          if (fb.name == o.symbol) {
            prev = it != feedback.end() ? it->second.convertTo(fb.type)
                                        : Value::fromInt(fb.type, fb.initial);
          }
        }
        const DpValue& res = dp.values[static_cast<size_t>(o.result)];
        values[static_cast<size_t>(o.result)] = prev.convertTo(hwType(res));
        continue;
      }

      // Map the op onto the shared semantics, evaluated at the result's
      // inferred hardware type.
      const DpValue& res = dp.values[static_cast<size_t>(o.result >= 0 ? o.result : 0)];
      shim.op = o.op;
      shim.type = o.result >= 0 ? hwType(res) : ScalarType::intTy();
      shim.imm = o.imm;
      shim.aux0 = o.aux0;
      shim.aux1 = o.aux1;
      const mir::FunctionIR::Table* table = nullptr;
      if (o.op == mir::Opcode::Lut) {
        for (const auto& t : dp.tables) {
          if (t.name == o.symbol) table = &t;
        }
      }
      const auto v = mir::evalPureOp(shim, ops, table);
      if (!v) throw std::runtime_error(fmt("dp eval: cannot evaluate %0", mir::opcodeName(o.op)));
      if (o.result >= 0) values[static_cast<size_t>(o.result)] = *v;
    }
  }

  result.outputs.reserve(dp.outputs.size());
  for (const auto& port : dp.outputs) {
    const auto& v = values[static_cast<size_t>(port.value)];
    if (!v) throw std::runtime_error(fmt("dp eval: output '%0' undriven", port.name));
    result.outputs.push_back(v->convertTo(port.type));
  }
  for (const auto& fb : dp.feedbacks) {
    const auto& v = values[static_cast<size_t>(fb.snxValue)];
    if (!v) throw std::runtime_error(fmt("dp eval: feedback '%0' undriven", fb.name));
    result.nextFeedback[fb.name] = v->convertTo(fb.type);
  }
  return result;
}

} // namespace roccc::dp
