#include "mir/ssa.hpp"

#include <cassert>
#include <functional>
#include <map>

#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::mir {

void buildSSA(FunctionIR& f) {
  faultpoint("mir.ssa");
  const DomTree dt = computeDominators(f);

  // Definition sites per register.
  std::map<int, std::set<int>> defBlocks;
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (in.hasDst()) defBlocks[in.dst].insert(b.id);
    }
  }

  // Registers needing phi treatment: more than one definition.
  std::vector<int> multiDef;
  for (const auto& [r, blocks] : defBlocks) {
    size_t defs = 0;
    for (int bid : blocks) {
      for (const auto& in : f.blocks[static_cast<size_t>(bid)].instrs) {
        if (in.dst == r) ++defs;
      }
    }
    if (defs > 1) multiDef.push_back(r);
  }

  // Give every multi-def register an explicit default definition in the
  // entry block so each path has a reaching definition (DCE removes the
  // dead ones).
  for (int r : multiDef) {
    if (defBlocks[r].count(0)) continue;
    Instr ld;
    ld.op = Opcode::Ldc;
    ld.dst = r;
    ld.type = f.regTypes[static_cast<size_t>(r)];
    ld.imm = 0;
    // Insert after leading In instructions, before anything else.
    auto& entry = f.entry().instrs;
    auto pos = entry.begin();
    while (pos != entry.end() && pos->op == Opcode::In) ++pos;
    entry.insert(pos, std::move(ld));
    defBlocks[r].insert(0);
  }

  // Phi insertion at iterated dominance frontiers.
  std::map<int, std::set<int>> phiBlocksForReg;
  for (int r : multiDef) {
    std::vector<int> work(defBlocks[r].begin(), defBlocks[r].end());
    std::set<int> hasPhi;
    while (!work.empty()) {
      const int b = work.back();
      work.pop_back();
      for (int df : dt.frontier[static_cast<size_t>(b)]) {
        if (hasPhi.insert(df).second) {
          phiBlocksForReg[r].insert(df);
          work.push_back(df);
        }
      }
    }
  }
  for (const auto& [r, blocks] : phiBlocksForReg) {
    for (int bid : blocks) {
      Block& b = f.blocks[static_cast<size_t>(bid)];
      Instr phi;
      phi.op = Opcode::Phi;
      phi.dst = r;
      phi.type = f.regTypes[static_cast<size_t>(r)];
      phi.srcs.assign(b.preds.size(), Operand::ofReg(r));
      b.instrs.insert(b.instrs.begin(), std::move(phi));
    }
  }

  // Renaming via dominator-tree DFS.
  const std::set<int> renamed(multiDef.begin(), multiDef.end());
  std::map<int, std::vector<int>> stacks; // original reg -> stack of versions
  std::map<int, int> versionCount;

  auto top = [&](int r) -> int {
    auto it = stacks.find(r);
    if (it == stacks.end() || it->second.empty()) return r; // single-def regs
    return it->second.back();
  };

  std::function<void(int)> rename = [&](int bid) {
    Block& b = f.blocks[static_cast<size_t>(bid)];
    std::vector<std::pair<int, size_t>> pushed; // (origReg, countToPop)

    for (auto& in : b.instrs) {
      if (in.op != Opcode::Phi) {
        for (auto& o : in.srcs) {
          if (o.isReg() && renamed.count(o.reg)) o.reg = top(o.reg);
        }
      }
      if (in.hasDst() && renamed.count(in.dst)) {
        const int orig = in.dst;
        const int v = versionCount[orig]++;
        const int newReg =
            v == 0 ? orig
                   : f.newReg(f.regTypes[static_cast<size_t>(orig)],
                              fmt("%0.%1", f.regNames[static_cast<size_t>(orig)], v));
        in.dst = newReg;
        stacks[orig].push_back(newReg);
        pushed.emplace_back(orig, 1);
      }
    }
    // Fill phi operands of successors.
    for (int s : b.succs) {
      Block& sb = f.blocks[static_cast<size_t>(s)];
      size_t predIdx = 0;
      for (; predIdx < sb.preds.size(); ++predIdx) {
        if (sb.preds[predIdx] == bid) break;
      }
      for (auto& in : sb.instrs) {
        if (in.op != Opcode::Phi) break;
        // Identify the phi's original register: every operand initially
        // holds it; after partial renaming the slot for this pred still
        // does unless already filled. Track via a parallel note: we use
        // the invariant that phi operands were initialized to the original
        // register id, which stacks key on.
        Operand& slot = in.srcs[predIdx];
        if (slot.isReg() && renamed.count(slot.reg)) slot.reg = top(slot.reg);
      }
    }
    for (int c : dt.children[static_cast<size_t>(bid)]) rename(c);
    for (auto& [orig, n] : pushed) {
      for (size_t i = 0; i < n; ++i) stacks[orig].pop_back();
    }
  };
  rename(0);
}

} // namespace roccc::mir
