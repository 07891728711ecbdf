#include "dp/annotate.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace roccc::dp {

json::Value exportJson(const DataPath& dp) {
  using json::Value;
  Value nodes = Value::array();
  for (const DpNode& n : dp.nodes) {
    Value ops = Value::array();
    for (int op : n.ops) ops.push(op);
    const char* kind =
        n.kind == NodeKind::Soft ? "soft" : (n.kind == NodeKind::Mux ? "mux" : "pipe");
    nodes.push(Value::object(
        {{"id", n.id}, {"kind", kind}, {"label", n.label}, {"ops", std::move(ops)}}));
  }
  Value ops = Value::array();
  for (size_t i = 0; i < dp.ops.size(); ++i) {
    const DpOp& o = dp.ops[i];
    Value operands = Value::array();
    for (int v : o.operands) operands.push(v);
    Value op = Value::object({{"id", i}, {"op", mir::opcodeName(o.op)}, {"stage", o.stage},
                              {"node", o.node}, {"result", o.result},
                              {"operands", std::move(operands)}});
    if (!o.symbol.empty()) op.set("symbol", o.symbol);
    if (o.op == mir::Opcode::Ldc) op.set("imm", o.imm);
    ops.push(std::move(op));
  }
  Value values = Value::array();
  for (const DpValue& v : dp.values) {
    values.push(Value::object({{"id", v.id}, {"name", v.name}, {"width", v.width},
                               {"signed", v.isSigned}, {"declared", v.declared.str()},
                               {"def", v.def}}));
  }
  auto ports = [](const std::vector<DataPath::Port>& list) {
    Value out = Value::array();
    for (const auto& p : list) {
      out.push(Value::object({{"name", p.name}, {"type", p.type.str()}, {"value", p.value}}));
    }
    return out;
  };
  Value feedbacks = Value::array();
  for (const auto& fb : dp.feedbacks) {
    feedbacks.push(
        Value::object({{"name", fb.name}, {"initial", fb.initial}, {"stage", fb.stage}}));
  }
  return Value::object({{"name", dp.name}, {"stages", dp.stageCount}, {"nodes", std::move(nodes)},
                        {"ops", std::move(ops)}, {"values", std::move(values)},
                        {"inputs", ports(dp.inputs)}, {"outputs", ports(dp.outputs)},
                        {"feedbacks", std::move(feedbacks)}});
}

bool applyAnnotations(DataPath& dp, const Annotations& a, DiagEngine& diags) {
  bool ok = true;

  // Width overrides by value name.
  for (const auto& [name, width] : a.forceWidth) {
    bool found = false;
    for (auto& v : dp.values) {
      if (v.name != name) continue;
      found = true;
      if (width < 1 || width > v.declared.width) {
        diags.error({}, fmt("annotation: width %0 for '%1' outside 1..%2", width, name,
                            v.declared.width));
        ok = false;
        break;
      }
      if (width < v.width) {
        diags.warning({}, fmt("annotation: narrowing '%0' from %1 to %2 bits may change results "
                              "(user-asserted value range)", name, v.width, width));
      }
      dp.narrowedBits += v.width - width;
      v.width = width;
    }
    if (!found) {
      diags.error({}, fmt("annotation: no value named '%0'", name));
      ok = false;
    }
  }

  // Stage pinning, then forward repair of dependent ops.
  for (const auto& [opIdx, stage] : a.forceStage) {
    if (opIdx < 0 || opIdx >= static_cast<int>(dp.ops.size())) {
      diags.error({}, fmt("annotation: op index %0 out of range", opIdx));
      ok = false;
      continue;
    }
    if (stage < 0) {
      diags.error({}, fmt("annotation: negative stage for op %0", opIdx));
      ok = false;
      continue;
    }
    dp.ops[static_cast<size_t>(opIdx)].stage = stage;
  }
  if (!a.forceStage.empty()) {
    // Repair: every op at least as late as its operands' defs; iterate to a
    // fixed point (the op graph is acyclic).
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& o : dp.ops) {
        for (int vid : o.operands) {
          const DpValue& v = dp.values[static_cast<size_t>(vid)];
          if (v.def < 0) continue;
          const DpOp& defOp = dp.ops[static_cast<size_t>(v.def)];
          if (defOp.op == mir::Opcode::Ldc) continue;
          if (defOp.stage > o.stage) {
            o.stage = defOp.stage;
            changed = true;
          }
        }
      }
    }
    int maxStage = 0;
    for (const auto& o : dp.ops) maxStage = std::max(maxStage, o.stage);
    dp.stageCount = maxStage + 1;
    // Feedback loops must still close within one stage.
    for (auto& fb : dp.feedbacks) {
      const int lprStage = dp.ops[static_cast<size_t>(dp.values[static_cast<size_t>(fb.lprValue)].def)].stage;
      const int snxStage = dp.ops[static_cast<size_t>(dp.values[static_cast<size_t>(fb.snxValue)].def)].stage;
      if (lprStage != snxStage) {
        diags.error({}, fmt("annotation: feedback '%0' loop would span stages %1..%2", fb.name,
                            lprStage, snxStage));
        ok = false;
      }
      fb.stage = snxStage;
    }
    // Output stages and register statistics.
    for (size_t p = 0; p < dp.outputs.size(); ++p) {
      const DpValue& v = dp.values[static_cast<size_t>(dp.outputs[p].value)];
      dp.outputStage[p] = v.def >= 0 ? dp.ops[static_cast<size_t>(v.def)].stage : 0;
    }
  }

  // Recompute register statistics (widths and/or stages changed).
  dp.pipelineRegisterBits = 0;
  dp.balanceRegisterBits = 0;
  std::vector<int> lastUse(dp.values.size(), -1);
  for (const auto& o : dp.ops) {
    for (int vid : o.operands) {
      lastUse[static_cast<size_t>(vid)] = std::max(lastUse[static_cast<size_t>(vid)], o.stage);
    }
  }
  for (const auto& port : dp.outputs) {
    lastUse[static_cast<size_t>(port.value)] = dp.stageCount - 1;
  }
  for (const auto& v : dp.values) {
    if (v.def >= 0 && dp.ops[static_cast<size_t>(v.def)].op == mir::Opcode::Ldc) continue;
    const int defStage = v.def >= 0 ? dp.ops[static_cast<size_t>(v.def)].stage : 0;
    const int last = lastUse[static_cast<size_t>(v.id)];
    if (last > defStage) {
      const int crossings = last - defStage;
      dp.pipelineRegisterBits += static_cast<int64_t>(crossings) * v.width;
      dp.balanceRegisterBits += static_cast<int64_t>(std::max(0, crossings - 1)) * v.width;
    }
  }
  return ok;
}

} // namespace roccc::dp
