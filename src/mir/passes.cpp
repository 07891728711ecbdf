#include "mir/passes.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "mir/exec.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::mir {

namespace {

/// Applies `fn` to every instruction in the block order `rpo` (computed
/// once per pass: no pass edits the CFG).
template <typename Fn>
void forEachInstrRpo(FunctionIR& f, const std::vector<int>& rpo, Fn&& fn) {
  for (int bid : rpo) {
    for (auto& in : f.blocks[static_cast<size_t>(bid)].instrs) fn(in);
  }
}

/// CSE expression identity: (op, type, imm, aux0, aux1, symbol, srcs), read
/// through the defining instruction. An available instruction is never
/// edited while it is in the table, so the pointer is a stable key.
bool sameOperand(const Operand& a, const Operand& b) {
  return a.isImm() == b.isImm() && (a.isImm() ? a.imm == b.imm : a.reg == b.reg);
}

struct ExprHash {
  size_t operator()(const Instr* in) const {
    size_t h = std::hash<std::string>{}(in->symbol);
    auto mix = [&h](uint64_t v) {
      h ^= std::hash<uint64_t>{}(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<uint64_t>(in->op));
    mix(static_cast<uint64_t>(in->type.width) << 1 | (in->type.isSigned ? 1 : 0));
    mix(static_cast<uint64_t>(in->imm));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(in->aux0)) << 32 | static_cast<uint32_t>(in->aux1));
    for (const auto& o : in->srcs) {
      mix(o.isImm() ? static_cast<uint64_t>(o.imm) : static_cast<uint64_t>(o.reg));
      mix(o.isImm() ? 1 : 0);
    }
    return h;
  }
};

struct ExprEq {
  bool operator()(const Instr* a, const Instr* b) const {
    return a->op == b->op && a->type == b->type && a->imm == b->imm && a->aux0 == b->aux0 &&
           a->aux1 == b->aux1 && a->symbol == b->symbol &&
           std::equal(a->srcs.begin(), a->srcs.end(), b->srcs.begin(), b->srcs.end(), sameOperand);
  }
};

} // namespace

int constantPropagate(FunctionIR& f) {
  int changes = 0;
  const std::vector<int> rpo = reversePostOrder(f);
  // SSA reg -> known constant (valid where `known` is set).
  std::vector<Value> constants(static_cast<size_t>(f.regCount()));
  std::vector<char> known(static_cast<size_t>(f.regCount()), 0);
  auto learn = [&](int reg, Value v) {
    constants[static_cast<size_t>(reg)] = v;
    known[static_cast<size_t>(reg)] = 1;
  };
  auto isKnown = [&](int reg) { return known[static_cast<size_t>(reg)] != 0; };
  std::vector<Value> ops;

  // Seed + propagate in RPO (SSA defs dominate uses, so one pass per
  // fixpoint round suffices; phi handling makes extra rounds useful).
  bool changed = true;
  while (changed) {
    changed = false;
    forEachInstrRpo(f, rpo, [&](Instr& in) {
      if (!in.hasDst() || isKnown(in.dst)) return;
      if (in.op == Opcode::Ldc) {
        learn(in.dst, Value::fromInt(in.type, in.imm));
        changed = true;
        return;
      }
      if (in.op == Opcode::Phi) {
        // A phi whose (known) inputs all agree is that constant.
        std::optional<Value> agreed;
        for (const auto& o : in.srcs) {
          if (!o.isReg() || !isKnown(o.reg)) return;
          const Value v = constants[static_cast<size_t>(o.reg)].convertTo(in.type);
          if (!agreed) {
            agreed = v;
          } else if (!(*agreed == v)) {
            return;
          }
        }
        if (agreed) {
          learn(in.dst, *agreed);
          changed = true;
        }
        return;
      }
      if (!isPure(in.op) || in.op == Opcode::In) return;
      ops.clear();
      for (const auto& o : in.srcs) {
        if (o.isImm()) {
          ops.push_back(Value::fromInt(in.type, o.imm));
        } else if (isKnown(o.reg)) {
          ops.push_back(constants[static_cast<size_t>(o.reg)]);
        } else {
          return;
        }
      }
      if (auto v = evalPureOp(in, ops, in.op == Opcode::Lut ? f.findTable(in.symbol) : nullptr)) {
        learn(in.dst, *v);
        changed = true;
      }
    });
  }

  // Rewrite: known-constant defs become Ldc; Mux with constant selector
  // becomes Mov of the taken side.
  forEachInstrRpo(f, rpo, [&](Instr& in) {
    if (in.hasDst() && isKnown(in.dst) && in.op != Opcode::Ldc && in.op != Opcode::Phi &&
        isPure(in.op)) {
      in.op = Opcode::Ldc;
      in.imm = constants[static_cast<size_t>(in.dst)].toInt();
      in.srcs.clear();
      in.symbol.clear();
      ++changes;
      return;
    }
    if (in.op == Opcode::Mux && in.srcs[0].isReg() && isKnown(in.srcs[0].reg)) {
      const bool taken = constants[static_cast<size_t>(in.srcs[0].reg)].toBool();
      const Operand src = taken ? in.srcs[1] : in.srcs[2];
      in.op = Opcode::Mov;
      in.srcs = {src};
      ++changes;
    }
  });
  return changes;
}

int copyPropagate(FunctionIR& f) {
  // Mov dst, src with identical types is a pure copy; redirect uses.
  // copyOf[dst] is the copied operand, or a None operand for a non-copy.
  const std::vector<int> rpo = reversePostOrder(f);
  std::vector<Operand> copyOf(static_cast<size_t>(f.regCount()));
  bool any = false;
  forEachInstrRpo(f, rpo, [&](Instr& in) {
    if (in.op == Opcode::Mov && in.srcs[0].isReg() &&
        f.regTypes[static_cast<size_t>(in.srcs[0].reg)] == in.type) {
      copyOf[static_cast<size_t>(in.dst)] = in.srcs[0];
      any = true;
    }
  });
  if (!any) return 0;
  auto isCopy = [&](const Operand& o) {
    return o.isReg() && copyOf[static_cast<size_t>(o.reg)].kind != Operand::Kind::None;
  };
  // Resolve chains.
  auto resolve = [&](Operand o) {
    while (isCopy(o)) o = copyOf[static_cast<size_t>(o.reg)];
    return o;
  };
  int changes = 0;
  forEachInstrRpo(f, rpo, [&](Instr& in) {
    for (auto& o : in.srcs) {
      if (isCopy(o)) {
        o = resolve(o);
        ++changes;
      }
    }
  });
  return changes;
}

int commonSubexpressionEliminate(FunctionIR& f) {
  const DomTree dt = computeDominators(f);

  // Expression -> available register, scoped over the dominator tree. A
  // key is available at most once (a second occurrence is redundant), so
  // leaving a scope erases what it added.
  std::unordered_map<const Instr*, int, ExprHash, ExprEq> avail;
  std::vector<int> replaced(static_cast<size_t>(f.regCount()), -1); // dst -> canonical reg
  std::vector<const Instr*> pushed; // keys added, innermost scope last
  int changes = 0;

  auto walk = [&](auto& self, int bid) -> void {
    const size_t scope = pushed.size();
    for (auto& in : f.blocks[static_cast<size_t>(bid)].instrs) {
      // First rewrite operands through prior replacements.
      for (auto& o : in.srcs) {
        if (o.isReg() && replaced[static_cast<size_t>(o.reg)] >= 0) {
          o = Operand::ofReg(replaced[static_cast<size_t>(o.reg)]);
        }
      }
      if (!in.hasDst() || !isCseEligible(in.op)) continue;
      const auto [it, inserted] = avail.try_emplace(&in, in.dst);
      if (inserted) {
        pushed.push_back(&in);
        continue;
      }
      // Redundant: replace with a Mov so DCE can drop it once unused.
      replaced[static_cast<size_t>(in.dst)] = it->second;
      in.op = Opcode::Mov;
      in.srcs = {Operand::ofReg(it->second)};
      in.symbol.clear();
      ++changes;
    }
    for (int c : dt.children[static_cast<size_t>(bid)]) self(self, c);
    for (; pushed.size() > scope; pushed.pop_back()) avail.erase(pushed.back());
  };
  walk(walk, 0);
  if (changes) copyPropagate(f);
  return changes;
}

int deadCodeEliminate(FunctionIR& f) {
  // Seed: operands of side-effecting instructions; then the transitive
  // operand closure through a register -> pure-defs index, one worklist
  // pass.
  const size_t regs = static_cast<size_t>(f.regCount());
  std::vector<size_t> defBegin(regs + 1, 0);
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (isPure(in.op) && in.hasDst()) ++defBegin[static_cast<size_t>(in.dst) + 1];
    }
  }
  for (size_t r = 0; r < regs; ++r) defBegin[r + 1] += defBegin[r];
  std::vector<const Instr*> defs(defBegin[regs]);
  {
    std::vector<size_t> fill(defBegin.begin(), defBegin.end() - 1);
    for (const auto& b : f.blocks) {
      for (const auto& in : b.instrs) {
        if (isPure(in.op) && in.hasDst()) defs[fill[static_cast<size_t>(in.dst)]++] = &in;
      }
    }
  }

  std::vector<char> live(regs, 0);
  std::vector<int> work;
  auto markSrcs = [&](const Instr& in) {
    for (const auto& o : in.srcs) {
      if (o.isReg() && !live[static_cast<size_t>(o.reg)]) {
        live[static_cast<size_t>(o.reg)] = 1;
        work.push_back(o.reg);
      }
    }
  };
  for (const auto& b : f.blocks) {
    for (const auto& in : b.instrs) {
      if (!isPure(in.op)) markSrcs(in);
    }
  }
  while (!work.empty()) {
    const size_t r = static_cast<size_t>(work.back());
    work.pop_back();
    for (size_t d = defBegin[r]; d < defBegin[r + 1]; ++d) markSrcs(*defs[d]);
  }

  int removed = 0;
  for (auto& b : f.blocks) {
    std::erase_if(b.instrs, [&](const Instr& in) {
      const bool dead = isPure(in.op) && in.hasDst() && !live[static_cast<size_t>(in.dst)];
      if (dead) ++removed;
      return dead;
    });
  }
  return removed;
}

int strengthReduce(FunctionIR& f) {
  int changes = 0;
  const std::vector<int> rpo = reversePostOrder(f);
  // Known constants (Ldc) by register, for identity detection.
  std::vector<std::optional<int64_t>> constOf(static_cast<size_t>(f.regCount()));
  forEachInstrRpo(f, rpo, [&](Instr& in) {
    if (in.op == Opcode::Ldc) {
      constOf[static_cast<size_t>(in.dst)] = Value::fromInt(in.type, in.imm).toInt();
    }
  });
  auto constValue = [&](const Operand& o) -> std::optional<int64_t> {
    if (o.isImm()) return o.imm;
    if (o.isReg()) return constOf[static_cast<size_t>(o.reg)];
    return std::nullopt;
  };
  auto isPow2 = [](int64_t v) { return v > 0 && (v & (v - 1)) == 0; };
  auto log2of = [](int64_t v) {
    int n = 0;
    while ((int64_t{1} << n) < v) ++n;
    return n;
  };

  forEachInstrRpo(f, rpo, [&](Instr& in) {
    switch (in.op) {
      case Opcode::Mul: {
        for (int side = 0; side < 2; ++side) {
          const auto c = constValue(in.srcs[static_cast<size_t>(side)]);
          if (!c) continue;
          const Operand other = in.srcs[static_cast<size_t>(1 - side)];
          if (*c == 0) {
            in.op = Opcode::Ldc;
            in.imm = 0;
            in.srcs.clear();
            ++changes;
            return;
          }
          if (*c == 1) {
            in.op = Opcode::Mov;
            in.srcs = {other};
            ++changes;
            return;
          }
          if (isPow2(*c)) {
            in.op = Opcode::Shl;
            in.srcs = {other, Operand::ofImm(log2of(*c))};
            ++changes;
            return;
          }
        }
        return;
      }
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr: {
        // x op 0 == x (for Sub/Shl/Shr only the right side; Add/Or/Xor both).
        const bool bothSides = in.op == Opcode::Add || in.op == Opcode::Or || in.op == Opcode::Xor;
        for (int side = bothSides ? 0 : 1; side < 2; ++side) {
          const auto c = constValue(in.srcs[static_cast<size_t>(side)]);
          if (c && *c == 0) {
            const Operand other = in.srcs[static_cast<size_t>(1 - side)];
            // Result may need the cast semantics of the op type; Mov
            // converts, preserving behavior.
            in.op = Opcode::Mov;
            in.srcs = {other};
            ++changes;
            return;
          }
        }
        return;
      }
      case Opcode::And: {
        for (int side = 0; side < 2; ++side) {
          const auto c = constValue(in.srcs[static_cast<size_t>(side)]);
          if (c && *c == 0) {
            in.op = Opcode::Ldc;
            in.imm = 0;
            in.srcs.clear();
            ++changes;
            return;
          }
        }
        return;
      }
      default:
        return;
    }
  });
  return changes;
}

void canonicalizeSideEffects(FunctionIR& f) {
  // Synthetic registers per output port / feedback name.
  std::map<int, int> outReg;
  std::map<std::string, int> snxReg;
  std::map<std::string, ScalarType> snxType;
  std::map<int, ScalarType> outType;
  bool any = false;
  for (auto& b : f.blocks) {
    for (auto& in : b.instrs) {
      if (in.op == Opcode::Out) {
        auto [it, inserted] = outReg.try_emplace(in.aux0, -1);
        if (inserted) it->second = f.newReg(in.type, fmt("__outport%0", in.aux0));
        outType[in.aux0] = in.type;
        in.op = Opcode::Mov;
        in.dst = it->second;
        any = true;
      } else if (in.op == Opcode::Snx) {
        auto [it, inserted] = snxReg.try_emplace(in.symbol, -1);
        if (inserted) it->second = f.newReg(in.type, "__snx_" + in.symbol);
        snxType[in.symbol] = in.type;
        in.op = Opcode::Mov;
        in.dst = it->second;
        any = true;
      }
    }
  }
  if (!any) return;
  // Default definitions in the entry block guarantee every path reaches the
  // canonical store with a defined value (0 when a path never writes).
  {
    auto& entry = f.entry().instrs;
    auto pos = entry.begin();
    while (pos != entry.end() && pos->op == Opcode::In) ++pos;
    std::vector<Instr> defaults;
    for (const auto& [port, reg] : outReg) {
      Instr ld;
      ld.op = Opcode::Ldc;
      ld.dst = reg;
      ld.type = outType.at(port);
      ld.imm = 0;
      defaults.push_back(std::move(ld));
    }
    for (const auto& [sym, reg] : snxReg) {
      // A feedback register that is not stored on some path keeps its
      // previous value: default to LPR, not zero.
      Instr lpr;
      lpr.op = Opcode::Lpr;
      lpr.dst = reg;
      lpr.type = snxType.at(sym);
      lpr.symbol = sym;
      defaults.push_back(std::move(lpr));
    }
    entry.insert(pos, std::make_move_iterator(defaults.begin()), std::make_move_iterator(defaults.end()));
  }
  // Append the canonical stores just before the Ret.
  for (auto& b : f.blocks) {
    if (b.instrs.empty() || b.instrs.back().op != Opcode::Ret) continue;
    auto at = b.instrs.end() - 1;
    std::vector<Instr> stores;
    for (const auto& [port, reg] : outReg) {
      Instr o;
      o.op = Opcode::Out;
      o.aux0 = port;
      o.type = outType.at(port);
      o.srcs = {Operand::ofReg(reg)};
      stores.push_back(std::move(o));
    }
    for (const auto& [sym, reg] : snxReg) {
      Instr s;
      s.op = Opcode::Snx;
      s.symbol = sym;
      s.type = snxType.at(sym);
      s.srcs = {Operand::ofReg(reg)};
      stores.push_back(std::move(s));
    }
    b.instrs.insert(at, std::make_move_iterator(stores.begin()), std::make_move_iterator(stores.end()));
  }
}

StandardPassStats runStandardPasses(FunctionIR& f) {
  faultpoint("mir.optimize");
  StandardPassStats stats;
  for (int round = 0; round < 8; ++round) {
    budgetCheckpoint("mir-optimize");
    const int cp = constantPropagate(f);
    const int cop = copyPropagate(f);
    const int sr = strengthReduce(f);
    const int cse = commonSubexpressionEliminate(f);
    const int dce = deadCodeEliminate(f);
    ++stats.rounds;
    stats.constProp += cp;
    stats.copyProp += cop;
    stats.strength += sr;
    stats.cse += cse;
    stats.dce += dce;
    if (cp + cop + sr + cse + dce == 0) break;
  }
  return stats;
}

} // namespace roccc::mir
