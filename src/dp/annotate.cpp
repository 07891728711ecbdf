#include "dp/annotate.hpp"

#include <algorithm>
#include <sstream>

#include "support/json.hpp"
#include "support/strings.hpp"

namespace roccc::dp {

std::string exportJson(const DataPath& dp) {
  std::ostringstream os;
  os << "{\n  \"name\": \"" << json::escape(dp.name) << "\",\n";
  os << "  \"stages\": " << dp.stageCount << ",\n";

  os << "  \"nodes\": [\n";
  for (size_t i = 0; i < dp.nodes.size(); ++i) {
    const DpNode& n = dp.nodes[i];
    os << "    {\"id\": " << n.id << ", \"kind\": \""
       << (n.kind == NodeKind::Soft ? "soft" : (n.kind == NodeKind::Mux ? "mux" : "pipe"))
       << "\", \"label\": \"" << json::escape(n.label) << "\", \"ops\": [";
    for (size_t k = 0; k < n.ops.size(); ++k) {
      if (k) os << ", ";
      os << n.ops[k];
    }
    os << "]}" << (i + 1 < dp.nodes.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  os << "  \"ops\": [\n";
  for (size_t i = 0; i < dp.ops.size(); ++i) {
    const DpOp& o = dp.ops[i];
    os << "    {\"id\": " << i << ", \"op\": \"" << mir::opcodeName(o.op) << "\", \"stage\": "
       << o.stage << ", \"node\": " << o.node << ", \"result\": " << o.result << ", \"operands\": [";
    for (size_t k = 0; k < o.operands.size(); ++k) {
      if (k) os << ", ";
      os << o.operands[k];
    }
    os << "]";
    if (!o.symbol.empty()) os << ", \"symbol\": \"" << json::escape(o.symbol) << "\"";
    if (o.op == mir::Opcode::Ldc) os << ", \"imm\": " << o.imm;
    os << "}" << (i + 1 < dp.ops.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  os << "  \"values\": [\n";
  for (size_t i = 0; i < dp.values.size(); ++i) {
    const DpValue& v = dp.values[i];
    os << "    {\"id\": " << v.id << ", \"name\": \"" << json::escape(v.name) << "\", \"width\": "
       << v.width << ", \"signed\": " << (v.isSigned ? "true" : "false") << ", \"declared\": \""
       << v.declared.str() << "\", \"def\": " << v.def << "}"
       << (i + 1 < dp.values.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  auto ports = [&](const char* key, const std::vector<DataPath::Port>& list) {
    os << "  \"" << key << "\": [";
    for (size_t i = 0; i < list.size(); ++i) {
      if (i) os << ", ";
      os << "{\"name\": \"" << json::escape(list[i].name) << "\", \"type\": \""
         << list[i].type.str() << "\", \"value\": " << list[i].value << "}";
    }
    os << "],\n";
  };
  ports("inputs", dp.inputs);
  ports("outputs", dp.outputs);

  os << "  \"feedbacks\": [";
  for (size_t i = 0; i < dp.feedbacks.size(); ++i) {
    const auto& fb = dp.feedbacks[i];
    if (i) os << ", ";
    os << "{\"name\": \"" << json::escape(fb.name) << "\", \"initial\": " << fb.initial
       << ", \"stage\": " << fb.stage << "}";
  }
  os << "]\n}\n";
  return os.str();
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
