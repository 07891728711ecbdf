#include "dp/eval.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "mir/exec.hpp"
#include "support/strings.hpp"

namespace roccc::dp {

Evaluator::Evaluator(const DataPath& dp) : dp_(dp), values_(dp.values.size()) {
  // Topological evaluation: ops are stored in placement order, which is
  // topological per construction except pipe-node rewiring, so a ready-loop
  // orders them. Whether an op is ready depends only on which values are
  // set, never on what they hold, so the loop visits ops in the same order
  // on every call: run it once here on presence flags.
  std::vector<char> set(dp.values.size(), 0), done(dp.ops.size(), 0);
  for (const auto& port : dp.inputs) {
    set[static_cast<size_t>(dp.values[static_cast<size_t>(port.value)].id)] = 1;
  }
  size_t remaining = dp.ops.size();
  size_t guard = 0;
  while (remaining > 0) {
    if (++guard > dp.ops.size() + 2) {
      cyclic_ = true;
      break;
    }
    for (size_t oi = 0; oi < dp.ops.size(); ++oi) {
      if (done[oi]) continue;
      const DpOp& o = dp.ops[oi];
      if (!std::all_of(o.operands.begin(), o.operands.end(),
                       [&](int vid) { return set[static_cast<size_t>(vid)] != 0; })) {
        continue;
      }
      done[oi] = 1;
      --remaining;
      order_.push_back(oi);
      if (o.result >= 0) set[static_cast<size_t>(o.result)] = 1;
    }
  }
}

EvalResult evaluate(const DataPath& dp, const std::vector<Value>& inputs,
                    const std::map<std::string, Value>& feedback) {
  return Evaluator(dp).run(inputs, feedback);
}

const EvalResult& Evaluator::run(const std::vector<Value>& inputs,
                                 const std::map<std::string, Value>& feedback) {
  const DataPath& dp = dp_;
  if (inputs.size() != dp.inputs.size()) {
    throw std::runtime_error(fmt("dp eval: %0 inputs bound, %1 expected", inputs.size(), dp.inputs.size()));
  }
  std::fill(values_.begin(), values_.end(), std::nullopt);
  // Each value lives at its *inferred* hardware type.
  auto hwType = [&](const DpValue& v) { return ScalarType::make(v.width, v.isSigned); };

  for (size_t p = 0; p < dp.inputs.size(); ++p) {
    const DpValue& v = dp.values[static_cast<size_t>(dp.inputs[p].value)];
    values_[static_cast<size_t>(v.id)] = inputs[p].convertTo(dp.inputs[p].type).convertTo(hwType(v));
  }

  // Every call writes the same feedback names, so the map keeps its nodes.
  for (const auto& fb : dp.feedbacks) {
    const auto it = feedback.find(fb.name);
    result_.nextFeedback[fb.name] =
        it != feedback.end() ? it->second.convertTo(fb.type) : Value::fromInt(fb.type, fb.initial);
  }

  // The instruction shim maps an op onto the shared semantics (evalPureOp
  // reads op, type, imm and aux fields only; Lut gets its table separately).
  mir::Instr shim;
  for (const size_t oi : order_) {
    const DpOp& o = dp.ops[oi];
    ops_.clear();
    for (int vid : o.operands) ops_.push_back(*values_[static_cast<size_t>(vid)]);
    // Bit-pattern ops must see the declared operand widths: a narrowed
    // value holds the same number, but BitSel/BitCat index raw bits.
    if (o.op == mir::Opcode::BitSel || o.op == mir::Opcode::BitCat) {
      for (size_t k = 0; k < ops_.size(); ++k) {
        ops_[k] = ops_[k].convertTo(dp.values[static_cast<size_t>(o.operands[k])].declared);
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
      values_[static_cast<size_t>(o.result)] = prev.convertTo(hwType(res));
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
    const auto v = mir::evalPureOp(shim, ops_, table);
    if (!v) throw std::runtime_error(fmt("dp eval: cannot evaluate %0", mir::opcodeName(o.op)));
    if (o.result >= 0) values_[static_cast<size_t>(o.result)] = *v;
  }
  if (cyclic_) throw std::runtime_error("dp eval: dependency cycle");

  result_.outputs.clear();
  for (const auto& port : dp.outputs) {
    const auto& v = values_[static_cast<size_t>(port.value)];
    if (!v) throw std::runtime_error(fmt("dp eval: output '%0' undriven", port.name));
    result_.outputs.push_back(v->convertTo(port.type));
  }
  for (const auto& fb : dp.feedbacks) {
    const auto& v = values_[static_cast<size_t>(fb.snxValue)];
    if (!v) throw std::runtime_error(fmt("dp eval: feedback '%0' undriven", fb.name));
    result_.nextFeedback[fb.name] = v->convertTo(fb.type);
  }
  return result_;
}

} // namespace roccc::dp
