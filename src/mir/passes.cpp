#include "mir/passes.hpp"

#include <cassert>
#include <functional>
#include <map>
#include <optional>

#include "mir/exec.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::mir {

namespace {

/// Applies `fn` to every instruction in RPO block order.
void forEachInstrRpo(FunctionIR& f, const std::function<void(Block&, Instr&)>& fn) {
  for (int bid : reversePostOrder(f)) {
    Block& b = f.blocks[static_cast<size_t>(bid)];
    for (auto& in : b.instrs) fn(b, in);
  }
}

/// True when the operand's value is provably >= 0: a non-negative immediate,
/// or a register whose declared type is unsigned and narrower than the
/// 64-bit evaluation domain.
bool nonNegative(const FunctionIR& f, const Operand& o) {
  if (o.isImm()) return o.imm >= 0;
  if (o.isReg()) {
    const ScalarType t = f.regTypes[static_cast<size_t>(o.reg)];
    return !t.isSigned;
  }
  return false;
}

} // namespace

int constantPropagate(FunctionIR& f) {
  int changes = 0;
  std::map<int, Value> constants; // SSA reg -> known constant

  // Seed + propagate in RPO (SSA defs dominate uses, so one pass per
  // fixpoint round suffices; phi handling makes extra rounds useful).
  bool changed = true;
  while (changed) {
    changed = false;
    forEachInstrRpo(f, [&](Block& b, Instr& in) {
      (void)b;
      if (!in.hasDst() || constants.count(in.dst)) return;
      if (in.op == Opcode::Ldc) {
        constants.emplace(in.dst, Value::fromInt(in.type, in.imm));
        changed = true;
        return;
      }
      if (in.op == Opcode::Phi) {
        // A phi whose (known) inputs all agree is that constant.
        std::optional<Value> agreed;
        for (const auto& o : in.srcs) {
          if (!o.isReg() || !constants.count(o.reg)) return;
          const Value v = constants.at(o.reg).convertTo(in.type);
          if (!agreed) {
            agreed = v;
          } else if (!(*agreed == v)) {
            return;
          }
        }
        if (agreed) {
          constants.emplace(in.dst, *agreed);
          changed = true;
        }
        return;
      }
      if (!isPure(in.op) || in.op == Opcode::In) return;
      std::vector<Value> ops;
      for (const auto& o : in.srcs) {
        if (o.isImm()) {
          ops.push_back(Value::fromInt(in.type, o.imm));
        } else if (constants.count(o.reg)) {
          ops.push_back(constants.at(o.reg));
        } else {
          return;
        }
      }
      if (auto v = evalPureOp(in, ops, in.op == Opcode::Lut ? f.findTable(in.symbol) : nullptr)) {
        constants.emplace(in.dst, *v);
        changed = true;
      }
    });
  }

  // Rewrite: known-constant defs become Ldc; Mux with constant selector
  // becomes Mov of the taken side.
  forEachInstrRpo(f, [&](Block& b, Instr& in) {
    (void)b;
    if (in.hasDst() && constants.count(in.dst) && in.op != Opcode::Ldc && in.op != Opcode::Phi &&
        isPure(in.op)) {
      const Value v = constants.at(in.dst);
      in.op = Opcode::Ldc;
      in.imm = v.toInt();
      in.srcs.clear();
      in.symbol.clear();
      ++changes;
      return;
    }
    if (in.op == Opcode::Mux && in.srcs[0].isReg() && constants.count(in.srcs[0].reg)) {
      const bool taken = constants.at(in.srcs[0].reg).toBool();
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
  std::map<int, Operand> copyOf;
  forEachInstrRpo(f, [&](Block& b, Instr& in) {
    (void)b;
    if (in.op == Opcode::Mov && in.srcs[0].isReg() &&
        f.regTypes[static_cast<size_t>(in.srcs[0].reg)] == in.type) {
      copyOf[in.dst] = in.srcs[0];
    }
  });
  if (copyOf.empty()) return 0;
  // Resolve chains.
  auto resolve = [&](Operand o) {
    while (o.isReg()) {
      const auto it = copyOf.find(o.reg);
      if (it == copyOf.end()) break;
      o = it->second;
    }
    return o;
  };
  int changes = 0;
  forEachInstrRpo(f, [&](Block& b, Instr& in) {
    (void)b;
    for (auto& o : in.srcs) {
      if (o.isReg() && copyOf.count(o.reg)) {
        o = resolve(o);
        ++changes;
      }
    }
  });
  return changes;
}

int commonSubexpressionEliminate(FunctionIR& f) {
  const DomTree dt = computeDominators(f);
  std::vector<std::vector<int>> domChildren(f.blocks.size());
  for (size_t b = 1; b < f.blocks.size(); ++b) {
    if (dt.idom[b] >= 0) domChildren[static_cast<size_t>(dt.idom[b])].push_back(static_cast<int>(b));
  }

  // Expression key -> available register, scoped over the dominator tree.
  using Key = std::string;
  auto keyOf = [&](const Instr& in) -> Key {
    std::string k = opcodeName(in.op);
    k += '|' + in.type.str();
    k += '|' + std::to_string(in.imm) + '|' + std::to_string(in.aux0) + '|' + std::to_string(in.aux1);
    k += '|' + in.symbol;
    for (const auto& o : in.srcs) {
      k += o.isImm() ? fmt("|#%0", o.imm) : fmt("|v%0", o.reg);
    }
    return k;
  };

  int changes = 0;
  std::map<Key, std::vector<int>> avail; // stack per key
  std::map<int, Operand> replaced;       // dst -> canonical reg

  std::function<void(int)> walk = [&](int bid) {
    Block& b = f.blocks[static_cast<size_t>(bid)];
    std::vector<Key> pushed;
    for (auto& in : b.instrs) {
      // First rewrite operands through prior replacements.
      for (auto& o : in.srcs) {
        if (o.isReg()) {
          const auto it = replaced.find(o.reg);
          if (it != replaced.end()) o = it->second;
        }
      }
      if (!in.hasDst() || !isCseEligible(in.op)) continue;
      const Key k = keyOf(in);
      const auto it = avail.find(k);
      if (it != avail.end() && !it->second.empty()) {
        // Redundant: replace with a Mov so DCE can drop it once unused.
        replaced[in.dst] = Operand::ofReg(it->second.back());
        in.op = Opcode::Mov;
        in.srcs = {Operand::ofReg(it->second.back())};
        in.symbol.clear();
        ++changes;
      } else {
        avail[k].push_back(in.dst);
        pushed.push_back(k);
      }
    }
    for (int c : domChildren[static_cast<size_t>(bid)]) walk(c);
    for (const auto& k : pushed) avail[k].pop_back();
  };
  walk(0);
  if (changes) copyPropagate(f);
  return changes;
}

int deadCodeEliminate(FunctionIR& f) {
  // Seed: side-effecting instructions; then transitive operand closure.
  std::set<int> liveRegs;
  bool changed = true;
  auto markSrcs = [&](const Instr& in) {
    bool any = false;
    for (const auto& o : in.srcs) {
      if (o.isReg() && liveRegs.insert(o.reg).second) any = true;
    }
    return any;
  };
  while (changed) {
    changed = false;
    for (const auto& b : f.blocks) {
      for (const auto& in : b.instrs) {
        if (!isPure(in.op)) {
          if (markSrcs(in)) changed = true;
        } else if (in.hasDst() && liveRegs.count(in.dst)) {
          if (markSrcs(in)) changed = true;
        }
      }
    }
  }
  int removed = 0;
  for (auto& b : f.blocks) {
    std::erase_if(b.instrs, [&](const Instr& in) {
      const bool dead = isPure(in.op) && in.hasDst() && !liveRegs.count(in.dst);
      if (dead) ++removed;
      return dead;
    });
  }
  return removed;
}

int strengthReduce(FunctionIR& f) {
  int changes = 0;
  // Known constants (Ldc) by register, for identity detection.
  std::map<int, int64_t> constOf;
  forEachInstrRpo(f, [&](Block&, Instr& in) {
    if (in.op == Opcode::Ldc) constOf[in.dst] = Value::fromInt(in.type, in.imm).toInt();
  });
  auto constValue = [&](const Operand& o) -> std::optional<int64_t> {
    if (o.isImm()) return o.imm;
    if (o.isReg()) {
      const auto it = constOf.find(o.reg);
      if (it != constOf.end()) return it->second;
    }
    return std::nullopt;
  };
  auto isPow2 = [](int64_t v) { return v > 0 && (v & (v - 1)) == 0; };
  auto log2of = [](int64_t v) {
    int n = 0;
    while ((int64_t{1} << n) < v) ++n;
    return n;
  };

  forEachInstrRpo(f, [&](Block&, Instr& in) {
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
      case Opcode::Div: {
        const auto c = constValue(in.srcs[1]);
        if (c && *c == 1) {
          in.op = Opcode::Mov;
          in.srcs = {in.srcs[0]};
          ++changes;
          return;
        }
        // Division by a power of two is a shift when the dividend is
        // provably non-negative (unsigned result type, or an unsigned
        // operand promoted into a signed op).
        if (c && isPow2(*c) && (!in.type.isSigned || nonNegative(f, in.srcs[0]))) {
          in.op = Opcode::Shr;
          in.srcs = {in.srcs[0], Operand::ofImm(log2of(*c))};
          ++changes;
        }
        return;
      }
      case Opcode::Rem: {
        const auto c = constValue(in.srcs[1]);
        if (c && isPow2(*c) && (!in.type.isSigned || nonNegative(f, in.srcs[0]))) {
          in.op = Opcode::And;
          in.srcs = {in.srcs[0], Operand::ofImm(*c - 1)};
          ++changes;
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
