#include "vhdl/layout.hpp"

#include <algorithm>
#include <cctype>

#include "support/strings.hpp"

namespace roccc::hdl {

std::string sanitize(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) out = "s_" + out;
  return out;
}

int addrBits(size_t entries) {
  int b = 1;
  while ((size_t{1} << b) < entries) ++b;
  return b;
}

bool isConstValue(const dp::DataPath& dp, int vid) {
  const dp::DpValue& v = dp.values[static_cast<size_t>(vid)];
  return v.def >= 0 && dp.ops[static_cast<size_t>(v.def)].op == mir::Opcode::Ldc;
}

int defStage(const dp::DataPath& dp, int vid) {
  const int def = dp.values[static_cast<size_t>(vid)].def;
  return def >= 0 ? dp.ops[static_cast<size_t>(def)].stage : 0;
}

namespace {

/// Appends the registers carrying `vid` past `fromStage` up to `toStage`
/// that are not there yet. `end` is the last stage already carried: a
/// value's registers always form one run above its defining stage.
void extendChain(std::vector<StagedValue>& regs, int& end, int vid, int fromStage, int toStage) {
  for (int s = std::max(end, fromStage) + 1; s <= toStage; ++s) {
    regs.push_back({vid, s});
    end = s;
  }
}

} // namespace

DesignLayout layoutDesign(const dp::DataPath& dp) {
  DesignLayout l;
  l.valueNames.reserve(dp.values.size());
  for (size_t vid = 0; vid < dp.values.size(); ++vid) {
    const std::string& name = dp.values[vid].name;
    l.valueNames.push_back(fmt("v%0_%1", vid, sanitize(name.empty() ? "t" : name)));
  }

  // producer[vid]: index of the node whose op list defines vid, or -1.
  std::vector<int> producer(dp.values.size(), -1);
  for (size_t n = 0; n < dp.nodes.size(); ++n) {
    for (int oi : dp.nodes[n].ops) {
      const int r = dp.ops[static_cast<size_t>(oi)].result;
      if (r >= 0) producer[static_cast<size_t>(r)] = static_cast<int>(n);
    }
  }

  l.nodes.resize(dp.nodes.size());
  std::vector<int> copyEnd(dp.values.size(), 0);
  for (size_t n = 0; n < dp.nodes.size(); ++n) {
    NodeIO& io = l.nodes[n];
    for (int oi : dp.nodes[n].ops) {
      const dp::DpOp& o = dp.ops[static_cast<size_t>(oi)];
      for (int vid : o.operands) {
        if (isConstValue(dp, vid)) continue;
        const int def = dp.values[static_cast<size_t>(vid)].def;
        if (def >= 0) {
          const dp::DpOp& defOp = dp.ops[static_cast<size_t>(def)];
          if (defOp.node == dp.nodes[n].id) {
            extendChain(io.copies, copyEnd[static_cast<size_t>(vid)], vid, defOp.stage, o.stage);
          }
        }
        if (producer[static_cast<size_t>(vid)] != static_cast<int>(n)) io.inputs.push_back({vid, o.stage});
      }
    }
    // One entry per value, keeping its earliest use.
    std::sort(io.inputs.begin(), io.inputs.end(), [](const NodeInput& a, const NodeInput& b) {
      return a.value != b.value ? a.value < b.value : a.firstUseStage < b.firstUseStage;
    });
    io.inputs.erase(std::unique(io.inputs.begin(), io.inputs.end(),
                                [](const NodeInput& a, const NodeInput& b) { return a.value == b.value; }),
                    io.inputs.end());
  }

  // A produced value is a node output when an op of another node reads it,
  // or it drives a top-level output port or a feedback register. A value
  // read by another node also gets top-level registers up to that stage.
  auto exportValue = [&](int vid) {
    const int p = vid >= 0 ? producer[static_cast<size_t>(vid)] : -1;
    if (p >= 0) l.nodes[static_cast<size_t>(p)].outputs.push_back(vid);
  };
  l.topChainEnd.assign(dp.values.size(), 0);
  for (const auto& o : dp.ops) {
    for (int vid : o.operands) {
      const int p = producer[static_cast<size_t>(vid)];
      if (p >= 0 && o.node != dp.nodes[static_cast<size_t>(p)].id) exportValue(vid);
      if (isConstValue(dp, vid)) continue;
      const int def = dp.values[static_cast<size_t>(vid)].def;
      const int defNode = def >= 0 ? dp.ops[static_cast<size_t>(def)].node : -1;
      if (defNode == o.node) continue; // node-internal, latched inside the node
      extendChain(l.topChains, l.topChainEnd[static_cast<size_t>(vid)], vid, defStage(dp, vid), o.stage);
    }
  }
  for (const auto& port : dp.outputs) exportValue(port.value);
  for (const auto& fb : dp.feedbacks) exportValue(fb.snxValue);

  for (NodeIO& io : l.nodes) {
    std::sort(io.outputs.begin(), io.outputs.end());
    io.outputs.erase(std::unique(io.outputs.begin(), io.outputs.end()), io.outputs.end());
    for (const NodeInput& in : io.inputs) l.topSignals.push_back(in.value);
    l.topSignals.insert(l.topSignals.end(), io.outputs.begin(), io.outputs.end());
  }
  for (const auto& port : dp.outputs) l.topSignals.push_back(port.value);
  for (const auto& fb : dp.feedbacks) {
    l.topSignals.push_back(fb.snxValue);
    l.topSignals.push_back(fb.lprValue);
  }
  std::sort(l.topSignals.begin(), l.topSignals.end());
  l.topSignals.erase(std::unique(l.topSignals.begin(), l.topSignals.end()), l.topSignals.end());
  std::erase_if(l.topSignals, [&](int vid) {
    return vid < 0 || isConstValue(dp, vid) || dp.values[static_cast<size_t>(vid)].inputPort >= 0;
  });
  return l;
}

} // namespace roccc::hdl
