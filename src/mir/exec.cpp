#include "mir/exec.hpp"

#include <cassert>
#include <stdexcept>

#include "support/strings.hpp"

namespace roccc::mir {

std::optional<Value> evalPureOp(const Instr& in, std::span<const Value> ops,
                                const FunctionIR::Table* table) {
  const ScalarType rt = in.type;
  switch (in.op) {
    case Opcode::Ldc: return Value::fromInt(rt, in.imm);
    case Opcode::Mov: return ops[0].convertTo(rt);
    case Opcode::Add: return ops::add(ops[0], ops[1], rt);
    case Opcode::Sub: return ops::sub(ops[0], ops[1], rt);
    case Opcode::Mul: return ops::mul(ops[0], ops[1], rt);
    case Opcode::Div: return ops::divide(ops[0], ops[1], rt);
    case Opcode::Rem: return ops::rem(ops[0], ops[1], rt);
    case Opcode::Neg: return ops::neg(ops[0], rt);
    case Opcode::And: return ops::bitAnd(ops[0], ops[1], rt);
    case Opcode::Or: return ops::bitOr(ops[0], ops[1], rt);
    case Opcode::Xor: return ops::bitXor(ops[0], ops[1], rt);
    case Opcode::Not: return ops::bitNot(ops[0], rt);
    case Opcode::Shl: return ops::shl(ops[0], ops[1], rt);
    case Opcode::Shr: return ops::shr(ops[0], ops[1], rt);
    case Opcode::Seq: return ops::cmpEq(ops[0], ops[1]);
    case Opcode::Sne: return ops::cmpNe(ops[0], ops[1]);
    case Opcode::Slt: return ops::cmpLt(ops[0], ops[1]);
    case Opcode::Sle: return ops::cmpLe(ops[0], ops[1]);
    case Opcode::Sgt: return ops::cmpGt(ops[0], ops[1]);
    case Opcode::Sge: return ops::cmpGe(ops[0], ops[1]);
    case Opcode::Mux: return ops::mux(ops[0], ops[1], ops[2], rt);
    case Opcode::Cast: return ops[0].convertTo(rt);
    case Opcode::BitSel: {
      // Bits aux0..aux1 (hi..lo) of the operand, zero-extended.
      const uint64_t raw = ops[0].toUnsigned() >> in.aux1;
      return Value(rt, raw);
    }
    case Opcode::BitCat: {
      const uint64_t hi = ops[0].toUnsigned();
      const uint64_t lo = ops[1].toUnsigned();
      return Value(rt, (hi << ops[1].width()) | lo);
    }
    case Opcode::Lut: {
      if (!table) return std::nullopt;
      const uint64_t idx = ops[0].toUnsigned();
      // Hardware ROMs wrap the address to the table size (power-of-two
      // depth); non-power-of-two tables clamp.
      const size_t n = table->values.size();
      const size_t i = idx < n ? static_cast<size_t>(idx) : (n ? n - 1 : 0);
      return Value::fromInt(rt, table->values[i]);
    }
    default:
      return std::nullopt;
  }
}

ExecResult execute(const FunctionIR& f, const std::vector<Value>& inputs,
                   const std::map<std::string, Value>& feedback) {
  std::vector<std::optional<Value>> regs(static_cast<size_t>(f.regCount()));
  ExecResult result;
  // Output count = number of output params.
  size_t outCount = 0;
  for (const auto& p : f.params) {
    if (p.isOutput) ++outCount;
  }
  result.outputs.assign(outCount, Value());
  for (const auto& fb : f.feedbacks) {
    const auto it = feedback.find(fb.name);
    result.nextFeedback[fb.name] =
        it != feedback.end() ? it->second.convertTo(fb.type) : Value::fromInt(fb.type, fb.initial);
  }

  auto opVal = [&](const Operand& o, ScalarType fallback) -> Value {
    if (o.isImm()) return Value::fromInt(fallback, o.imm);
    assert(o.isReg());
    const auto& v = regs[static_cast<size_t>(o.reg)];
    if (!v) throw std::runtime_error(fmt("mir exec: v%0 read before definition", o.reg));
    return *v;
  };

  // Scratch reused by every block and instruction of this invocation.
  std::vector<std::pair<int, Value>> phiValues;
  std::vector<Value> operands;
  int cur = 0, prev = -1;
  size_t steps = 0;
  while (true) {
    if (++steps > 1'000'000) throw std::runtime_error("mir exec: step limit exceeded");
    const Block& b = f.blocks[static_cast<size_t>(cur)];
    // Phis read their pred slot against `prev` — evaluate them as a batch
    // (they conceptually execute in parallel at block entry).
    phiValues.clear();
    size_t i = 0;
    for (; i < b.instrs.size() && b.instrs[i].op == Opcode::Phi; ++i) {
      const Instr& phi = b.instrs[i];
      size_t slot = 0;
      for (; slot < b.preds.size(); ++slot) {
        if (b.preds[slot] == prev) break;
      }
      if (slot == b.preds.size()) throw std::runtime_error("mir exec: phi with unknown predecessor");
      phiValues.emplace_back(phi.dst, opVal(phi.srcs[slot], phi.type).convertTo(phi.type));
    }
    for (auto& [dst, v] : phiValues) regs[static_cast<size_t>(dst)] = v;

    bool terminated = false;
    for (; i < b.instrs.size(); ++i) {
      const Instr& in = b.instrs[i];
      switch (in.op) {
        case Opcode::In: {
          if (static_cast<size_t>(in.aux0) >= inputs.size()) {
            throw std::runtime_error(fmt("mir exec: input port %0 not bound", in.aux0));
          }
          regs[static_cast<size_t>(in.dst)] = inputs[static_cast<size_t>(in.aux0)].convertTo(in.type);
          break;
        }
        case Opcode::Out: {
          result.outputs[static_cast<size_t>(in.aux0)] = opVal(in.srcs[0], in.type).convertTo(in.type);
          break;
        }
        case Opcode::Lpr: {
          const auto it = feedback.find(in.symbol);
          const FunctionIR::FeedbackReg* fb = f.findFeedback(in.symbol);
          assert(fb);
          regs[static_cast<size_t>(in.dst)] =
              (it != feedback.end() ? it->second : Value::fromInt(fb->type, fb->initial)).convertTo(in.type);
          break;
        }
        case Opcode::Snx: {
          result.nextFeedback[in.symbol] = opVal(in.srcs[0], in.type).convertTo(in.type);
          break;
        }
        case Opcode::Br: {
          const Value c = opVal(in.srcs[0], ScalarType::boolTy());
          prev = cur;
          cur = c.toBool() ? b.succs[0] : b.succs[1];
          terminated = true;
          break;
        }
        case Opcode::Jmp: {
          prev = cur;
          cur = b.succs[0];
          terminated = true;
          break;
        }
        case Opcode::Ret:
          return result;
        default: {
          operands.clear();
          for (const auto& o : in.srcs) {
            // Immediate operands adopt the result type for evaluation.
            operands.push_back(opVal(o, in.type));
          }
          const auto v =
              evalPureOp(in, operands, in.op == Opcode::Lut ? f.findTable(in.symbol) : nullptr);
          if (!v) throw std::runtime_error(fmt("mir exec: cannot evaluate %0", opcodeName(in.op)));
          regs[static_cast<size_t>(in.dst)] = *v;
          break;
        }
      }
      if (terminated) break;
    }
    if (!terminated) throw std::runtime_error("mir exec: fell off a block without terminator");
  }
}

} // namespace roccc::mir
