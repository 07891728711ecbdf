#include "dp/datapath.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::dp {

using mir::Opcode;

// ---------------------------------------------------------------------------
// Delay model — looked up from synth::TimingModel (the Virtex-II-class table
// by default); used for latch placement and by the retime pass.
// ---------------------------------------------------------------------------

bool primitiveForOpcode(Opcode op, BuildOptions::MultStyle style, synth::Primitive& out) {
  switch (op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Neg:
      out = synth::Primitive::Add;
      return true;
    case Opcode::Mul:
      out = style == BuildOptions::MultStyle::Mult18 ? synth::Primitive::Mul18
                                                     : synth::Primitive::MulLut;
      return true;
    case Opcode::Div:
    case Opcode::Rem:
      out = synth::Primitive::Div;
      return true;
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Not:
      out = synth::Primitive::Logic;
      return true;
    case Opcode::Shl:
    case Opcode::Shr:
      out = synth::Primitive::Shift;
      return true;
    case Opcode::Seq:
    case Opcode::Sne:
    case Opcode::Slt:
    case Opcode::Sle:
    case Opcode::Sgt:
    case Opcode::Sge:
      out = synth::Primitive::Cmp;
      return true;
    case Opcode::Mux:
      out = synth::Primitive::Mux;
      return true;
    case Opcode::Lut:
      out = synth::Primitive::Rom;
      return true;
    default:
      return false; // wiring / I/O copies / control: free
  }
}

double opDelayNs(const synth::TimingModel& model, Opcode op, int width,
                 BuildOptions::MultStyle style) {
  // Constant shifts are free wiring (callers pass width 0 to signal one —
  // see timedOpDelayNs).
  if ((op == Opcode::Shl || op == Opcode::Shr) && width == 0) return 0.0;
  synth::Primitive p;
  if (!primitiveForOpcode(op, style, p)) return 0.0;
  return model.delayNs(p, width);
}

double opDelayNs(Opcode op, int width, BuildOptions::MultStyle style) {
  return opDelayNs(synth::TimingModel::virtex2(), op, width, style);
}

double timedOpDelayNs(const DataPath& d, const DpOp& o, const synth::TimingModel& model,
                      BuildOptions::MultStyle style) {
  int w = 32;
  if (o.result >= 0) w = d.values[static_cast<size_t>(o.result)].width;
  // Comparisons produce 1 bit but their carry chain spans the operands.
  switch (o.op) {
    case Opcode::Seq:
    case Opcode::Sne:
    case Opcode::Slt:
    case Opcode::Sle:
    case Opcode::Sgt:
    case Opcode::Sge:
      w = 1;
      for (int vid : o.operands) {
        w = std::max(w, d.values[static_cast<size_t>(vid)].width);
      }
      break;
    default:
      break;
  }
  // Constant shift amounts make shifts free wiring.
  if ((o.op == Opcode::Shl || o.op == Opcode::Shr) && o.operands.size() == 2) {
    const DpValue& sh = d.values[static_cast<size_t>(o.operands[1])];
    if (sh.def >= 0 && d.ops[static_cast<size_t>(sh.def)].op == Opcode::Ldc) {
      return opDelayNs(model, o.op, 0, style);
    }
  }
  const double delay = opDelayNs(model, o.op, w, style);
  // Per-hop routing margin, mirroring the synthesis model.
  return delay > 0 ? delay + model.routingPerHopNs : 0.0;
}

namespace {

/// Canonical-signed-digit decomposition of |c|: returns (position, +1/-1)
/// pairs with no two adjacent nonzero digits.
std::vector<std::pair<int, int>> csdDigits(int64_t c) {
  std::vector<std::pair<int, int>> digits;
  int pos = 0;
  while (c != 0) {
    if (c & 1) {
      const int digit = 2 - static_cast<int>(c & 3); // +1 or -1
      digits.emplace_back(pos, digit);
      c -= digit;
    }
    c >>= 1;
    ++pos;
  }
  return digits;
}

} // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

namespace {

class Builder {
 public:
  Builder(const mir::FunctionIR& fn, DataPath& out, DiagEngine& diags, const BuildOptions& opt)
      : fn_(fn), out_(out), diags_(diags), opt_(opt) {}

  bool run() {
    out_ = DataPath{};
    out_.name = fn_.name;
    out_.tables = fn_.tables;

    std::vector<std::string> ssaErrors;
    if (!fn_.verifySSA(ssaErrors)) {
      for (const auto& e : ssaErrors) diags_.error({}, "datapath: input MIR not in SSA form: " + e);
      return false;
    }

    dt_ = mir::computeDominators(fn_);
    createPorts();
    if (!placeOps()) return false;
    insertPipeNodes();
    if (opt_.widthMode == BuildOptions::WidthMode::RangeAnalysis) {
      inferWidths();
    } else if (opt_.widthMode == BuildOptions::WidthMode::PortOpcode) {
      inferWidthsPortOpcode();
    }
    assignStages();
    computeStats();
    return !failed_;
  }

 private:
  const mir::FunctionIR& fn_;
  DataPath& out_;
  DiagEngine& diags_;
  BuildOptions opt_;
  mir::DomTree dt_;
  bool failed_ = false;

  std::map<int, int> regValue_;  ///< MIR reg -> value id
  std::map<int, int> blockNode_; ///< MIR block -> soft node id
  std::map<int, int> joinMuxNode_; ///< join block -> mux node id

  void fail(std::string msg) {
    diags_.error({}, std::move(msg));
    failed_ = true;
  }

  int newValue(ScalarType t, std::string name, int defOp) {
    DpValue v;
    v.id = static_cast<int>(out_.values.size());
    v.declared = t;
    v.width = t.width;
    v.isSigned = t.isSigned;
    v.range = ValueRange::ofType(t);
    v.name = std::move(name);
    v.def = defOp;
    out_.values.push_back(std::move(v));
    return out_.values.back().id;
  }

  int newNode(NodeKind kind, int cfgBlock, std::string label) {
    DpNode n;
    n.id = static_cast<int>(out_.nodes.size());
    n.kind = kind;
    n.cfgBlock = cfgBlock;
    n.label = std::move(label);
    out_.nodes.push_back(std::move(n));
    return out_.nodes.back().id;
  }

  int addOp(Opcode op, ScalarType resultType, std::vector<int> operands, int node,
            const std::string& resultName = "") {
    DpOp o;
    o.op = op;
    o.operands = std::move(operands);
    o.node = node;
    const int idx = static_cast<int>(out_.ops.size());
    if (op != Opcode::Out && op != Opcode::Snx) {
      o.result = newValue(resultType, resultName, idx);
    }
    out_.ops.push_back(std::move(o));
    out_.nodes[static_cast<size_t>(node)].ops.push_back(idx);
    return idx;
  }

  int valueOf(const mir::Operand& o, ScalarType typeForImm, int node) {
    if (o.isImm()) {
      const int opIdx = addOp(Opcode::Ldc, typeForImm, {}, node, fmt("c%0", o.imm));
      out_.ops[static_cast<size_t>(opIdx)].imm = o.imm;
      out_.values[static_cast<size_t>(out_.ops[static_cast<size_t>(opIdx)].result)].range =
          ValueRange::constant(Value::fromInt(typeForImm, o.imm).toInt());
      return out_.ops[static_cast<size_t>(opIdx)].result;
    }
    const auto it = regValue_.find(o.reg);
    if (it == regValue_.end()) {
      fail(fmt("datapath: use of v%0 before definition", o.reg));
      return newValue(ScalarType::intTy(), "error", -1);
    }
    return it->second;
  }

  void createPorts() {
    int inIdx = 0;
    for (const auto& p : fn_.params) {
      if (p.isOutput) {
        out_.outputs.push_back({p.name, p.type, -1});
      } else {
        DataPath::Port port{p.name, p.type, -1};
        port.value = newValue(p.type, p.name, -1);
        out_.values[static_cast<size_t>(port.value)].inputPort = inIdx++;
        out_.inputs.push_back(port);
      }
    }
    out_.outputStage.assign(out_.outputs.size(), 0);
    for (const auto& fb : fn_.feedbacks) {
      out_.feedbacks.push_back({fb.name, fb.type, fb.initial, -1, -1, 0});
    }
  }

  DataPath::Feedback& feedbackOf(const std::string& name) {
    for (auto& fb : out_.feedbacks) {
      if (fb.name == name) return fb;
    }
    // No shared fallback object: a function-local static here would be the
    // one mutable global in the whole pipeline (concurrent compiles could
    // alias it). An unknown feedback is a compiler invariant violation —
    // thrown, not abort()ed, so the containment boundary classifies it as
    // InternalError instead of killing every sibling job in the batch.
    throw InternalCompilerError(fmt("datapath: unknown feedback '%0'", name));
  }

  /// The branch structure of a join block: selector value + which pred is
  /// the "true" arm.
  struct Diamond {
    int selReg = -1;
    size_t truePredSlot = 0;
  };

  std::optional<Diamond> analyzeJoin(const mir::Block& join) {
    if (join.preds.size() != 2) {
      fail(fmt("datapath: join bb%0 has %1 predecessors (structured if/else expected)", join.id,
               join.preds.size()));
      return std::nullopt;
    }
    const int d = dt_.idom[static_cast<size_t>(join.id)];
    const mir::Block& db = fn_.blocks[static_cast<size_t>(d)];
    const mir::Instr* term = db.terminator();
    if (!term || term->op != Opcode::Br || db.succs.size() != 2) {
      fail(fmt("datapath: join bb%0's dominator bb%1 is not a conditional branch", join.id, d));
      return std::nullopt;
    }
    Diamond dia;
    dia.selReg = term->srcs[0].reg;
    // Which pred slot lies on the true arm (reached via db.succs[0])?
    const int trueArm = db.succs[0];
    for (size_t slot = 0; slot < join.preds.size(); ++slot) {
      const int p = join.preds[slot];
      if (p == trueArm || dt_.dominates(trueArm, p)) {
        dia.truePredSlot = slot;
        return dia;
      }
    }
    // Degenerate: the true arm may be the join itself (empty then-branch
    // jumping straight to join): then the *other* pred is the false arm.
    for (size_t slot = 0; slot < join.preds.size(); ++slot) {
      if (join.preds[slot] == d) {
        // Edge d->join directly: is it the true or false successor?
        dia.truePredSlot = (db.succs[0] == join.id) ? slot : 1 - slot;
        return dia;
      }
    }
    fail(fmt("datapath: cannot map phi operands of bb%0 to branch arms", join.id));
    return std::nullopt;
  }

  bool placeOps() {
    for (int bid : mir::reversePostOrder(fn_)) {
      const mir::Block& b = fn_.blocks[static_cast<size_t>(bid)];
      int softNode = -1;
      auto nodeFor = [&]() {
        if (softNode < 0) {
          softNode = newNode(NodeKind::Soft, bid, fmt("node%0", out_.nodes.size() + 1));
          blockNode_[bid] = softNode;
        }
        return softNode;
      };
      std::optional<Diamond> dia;
      int muxNode = -1;

      for (const auto& in : b.instrs) {
        switch (in.op) {
          case Opcode::In:
            regValue_[in.dst] = out_.inputs[static_cast<size_t>(in.aux0)].value;
            break;
          case Opcode::Out: {
            const int v = valueOf(in.srcs[0], in.type, nodeFor());
            out_.outputs[static_cast<size_t>(in.aux0)].value = v;
            break;
          }
          case Opcode::Lpr: {
            const int node = nodeFor();
            const int opIdx = addOp(Opcode::Lpr, in.type, {}, node, in.symbol + "_prev");
            out_.ops[static_cast<size_t>(opIdx)].symbol = in.symbol;
            auto& fb = feedbackOf(in.symbol);
            if (fb.lprValue >= 0) {
              // One physical register: alias further LPRs to the same value.
              regValue_[in.dst] = fb.lprValue;
              // Drop the duplicate op we just created.
              out_.nodes[static_cast<size_t>(node)].ops.pop_back();
              out_.ops.pop_back();
              out_.values.pop_back();
            } else {
              fb.lprValue = out_.ops[static_cast<size_t>(opIdx)].result;
              regValue_[in.dst] = fb.lprValue;
            }
            break;
          }
          case Opcode::Snx: {
            const int v = valueOf(in.srcs[0], in.type, nodeFor());
            feedbackOf(in.symbol).snxValue = v;
            break;
          }
          case Opcode::Phi: {
            if (!dia) {
              dia = analyzeJoin(b);
              if (!dia) return false;
              muxNode = newNode(NodeKind::Mux, bid, fmt("mux@bb%0", bid));
              joinMuxNode_[bid] = muxNode;
            }
            const int sel = valueOf(mir::Operand::ofReg(dia->selReg), ScalarType::boolTy(), muxNode);
            const int tv = valueOf(in.srcs[dia->truePredSlot], in.type, muxNode);
            const int fv = valueOf(in.srcs[1 - dia->truePredSlot], in.type, muxNode);
            const int opIdx = addOp(Opcode::Mux, in.type, {sel, tv, fv}, muxNode,
                                    fn_.regNames[static_cast<size_t>(in.dst)]);
            regValue_[in.dst] = out_.ops[static_cast<size_t>(opIdx)].result;
            ++out_.muxOpCount;
            break;
          }
          case Opcode::Br:
          case Opcode::Jmp:
          case Opcode::Ret:
            break; // control flow is encoded by the mux nodes
          case Opcode::Div:
          case Opcode::Rem:
            // Always expanded into a restoring-divider array of sub/mux rows
            // (one row per quotient bit). The generic latch placement then
            // pipelines the array — this is how the compiler-generated udiv
            // reaches a higher clock rate than the hand IP at ~3x the area
            // (Table 1).
            regValue_[in.dst] = emitRestoringDivider(in, in.op == Opcode::Rem, nodeFor());
            break;
          case Opcode::Mul: {
            // 'LUT' multiplier style: decompose constant multiplications
            // into canonical-signed-digit shift-adds (Table 1 FIR/DCT).
            if (opt_.multStyle == BuildOptions::MultStyle::Lut) {
              const auto c = constantOperand(in);
              if (c) {
                regValue_[in.dst] = emitCsdMultiply(in, *c, nodeFor());
                break;
              }
            }
            placeGenericOp(in, nodeFor());
            break;
          }
          default:
            placeGenericOp(in, nodeFor());
            break;
        }
        if (failed_) return false;
      }
    }
    // Every output must be driven.
    for (const auto& o : out_.outputs) {
      if (o.value < 0) fail(fmt("datapath: output port '%0' is never written", o.name));
    }
    for (const auto& fb : out_.feedbacks) {
      if (fb.snxValue < 0) fail(fmt("datapath: feedback '%0' is never stored", fb.name));
    }
    return !failed_;
  }

  /// Constant operand of a Mul: an immediate, or a register defined by Ldc.
  std::optional<std::pair<int, int64_t>> constantOperand(const mir::Instr& in) {
    for (int side = 0; side < 2; ++side) {
      const mir::Operand& o = in.srcs[static_cast<size_t>(side)];
      if (o.isImm()) return std::make_pair(side, o.imm);
      if (o.isReg()) {
        const auto it = regValue_.find(o.reg);
        if (it != regValue_.end()) {
          const DpValue& v = out_.values[static_cast<size_t>(it->second)];
          if (v.def >= 0 && out_.ops[static_cast<size_t>(v.def)].op == Opcode::Ldc) {
            return std::make_pair(side, out_.ops[static_cast<size_t>(v.def)].imm);
          }
        }
      }
    }
    return std::nullopt;
  }

  /// x * c as a CSD shift-add tree; returns the result value id.
  int emitCsdMultiply(const mir::Instr& in, std::pair<int, int64_t> constSide, int node) {
    const mir::Operand& xOp = in.srcs[static_cast<size_t>(1 - constSide.first)];
    const int x = valueOf(xOp, in.type, node);
    int64_t c = constSide.second;
    const bool negate = c < 0;
    if (negate) c = -c;
    if (c == 0) {
      const int z = addOp(Opcode::Ldc, in.type, {}, node, "c0");
      out_.values[static_cast<size_t>(out_.ops[static_cast<size_t>(z)].result)].range = ValueRange::constant(0);
      return out_.ops[static_cast<size_t>(z)].result;
    }
    int acc = -1;
    for (const auto& [pos, digit] : csdDigits(c)) {
      int term = x;
      if (pos > 0) {
        const int shOp = addOp(Opcode::Shl, in.type, {x, constantValue(pos, node)}, node);
        term = out_.ops[static_cast<size_t>(shOp)].result;
      }
      if (acc < 0) {
        if (digit < 0) {
          const int negOp = addOp(Opcode::Neg, in.type, {term}, node);
          acc = out_.ops[static_cast<size_t>(negOp)].result;
        } else {
          acc = term;
        }
      } else {
        const int addIdx = addOp(digit > 0 ? Opcode::Add : Opcode::Sub, in.type, {acc, term}, node);
        acc = out_.ops[static_cast<size_t>(addIdx)].result;
      }
    }
    if (negate) {
      const int negOp = addOp(Opcode::Neg, in.type, {acc}, node);
      acc = out_.ops[static_cast<size_t>(negOp)].result;
    }
    return acc;
  }

  /// Generic typed op creation returning the result value id.
  int addOpValue(Opcode op, ScalarType t, std::vector<int> operands, int node,
                 const std::string& name = "") {
    const int idx = addOp(op, t, std::move(operands), node, name);
    return out_.ops[static_cast<size_t>(idx)].result;
  }

  /// Restoring-divider array (section 4.2.4: SUIFvm division has no IEEE
  /// 1076.3 correspondence, so the compiler builds the circuit): one
  /// BitCat/compare/subtract/mux row per quotient bit, MSB first. The
  /// generic latch placement pipelines the rows. Matches the simulator's
  /// division convention exactly (q=all-ones, r=dividend when divisor==0).
  int emitRestoringDivider(const mir::Instr& in, bool isRem, int node) {
    const ScalarType rt = in.type;
    const int nVal = valueOf(in.srcs[0], rt, node);
    const int dVal = valueOf(in.srcs[1], rt, node);
    const ScalarType nTy = out_.values[static_cast<size_t>(nVal)].declared;
    const ScalarType dTy = out_.values[static_cast<size_t>(dVal)].declared;
    const int N = nTy.width;
    const int DW = dTy.width;
    const ScalarType uN = ScalarType::make(N, false);
    const ScalarType uD = ScalarType::make(DW, false);

    // Magnitudes (signed operands take an abs step; INT_MIN's magnitude is
    // representable once reinterpreted as unsigned).
    int nNeg = -1, dNeg = -1;
    int an = nVal, ad = dVal;
    if (nTy.isSigned) {
      const int zero = constantValue(0, node);
      nNeg = addOpValue(Opcode::Slt, ScalarType::boolTy(), {nVal, zero}, node, "n_neg");
      const int negN = addOpValue(Opcode::Neg, nTy, {nVal}, node);
      const int mag = addOpValue(Opcode::Mux, nTy, {nNeg, negN, nVal}, node, "n_mag");
      an = addOpValue(Opcode::Cast, uN, {mag}, node, "n_abs");
    } else if (nTy.width != N || nTy.isSigned) {
      an = addOpValue(Opcode::Cast, uN, {nVal}, node);
    }
    if (dTy.isSigned) {
      const int zero = constantValue(0, node);
      dNeg = addOpValue(Opcode::Slt, ScalarType::boolTy(), {dVal, zero}, node, "d_neg");
      const int negD = addOpValue(Opcode::Neg, dTy, {dVal}, node);
      const int mag = addOpValue(Opcode::Mux, dTy, {dNeg, negD, dVal}, node, "d_mag");
      ad = addOpValue(Opcode::Cast, uD, {mag}, node, "d_abs");
    }

    // Rows, MSB first. Remainder register runs at DW+1 bits.
    const ScalarType rTy = ScalarType::make(DW + 1, false);
    int r = constantValue(0, node);
    r = addOpValue(Opcode::Cast, ScalarType::make(1, false), {r}, node, "r_init");
    std::vector<int> qBits(static_cast<size_t>(N), -1);
    for (int k = N - 1; k >= 0; --k) {
      const int bit = [&] {
        const int bs = addOp(Opcode::BitSel, ScalarType::make(1, false), {an}, node, fmt("n_b%0", k));
        out_.ops[static_cast<size_t>(bs)].aux0 = k;
        out_.ops[static_cast<size_t>(bs)].aux1 = k;
        return out_.ops[static_cast<size_t>(bs)].result;
      }();
      // rShift = {r, bit} at DW+1 bits.
      const int rWide = addOpValue(Opcode::Cast, ScalarType::make(DW, false), {r}, node);
      const int rShift = addOpValue(Opcode::BitCat, rTy, {rWide, bit}, node, fmt("rsh%0", k));
      const int adWide = addOpValue(Opcode::Cast, rTy, {ad}, node);
      const int ge = addOpValue(Opcode::Sge, ScalarType::boolTy(), {rShift, adWide}, node,
                                fmt("q_b%0", k));
      const int diff = addOpValue(Opcode::Sub, rTy, {rShift, adWide}, node);
      const int rNext = addOpValue(Opcode::Mux, rTy, {ge, diff, rShift}, node);
      r = addOpValue(Opcode::Cast, ScalarType::make(DW, false), {rNext}, node, fmt("r%0", k));
      qBits[static_cast<size_t>(k)] = ge;
    }
    // Assemble the quotient from its bits, MSB down.
    int q = qBits[static_cast<size_t>(N - 1)];
    for (int k = N - 2; k >= 0; --k) {
      const int w = N - k;
      q = addOpValue(Opcode::BitCat, ScalarType::make(w, false), {q, qBits[static_cast<size_t>(k)]},
                     node, fmt("q_hi%0", k));
    }

    // Divide-by-zero handling per the shared convention.
    const int dzZero = constantValue(0, node);
    const int dz = addOpValue(Opcode::Seq, ScalarType::boolTy(),
                              {addOpValue(Opcode::Cast, uD, {dVal}, node), dzZero}, node, "d_is0");

    if (!isRem) {
      int ext = addOpValue(Opcode::Cast, rt, {q}, node, "q_ext");
      if (rt.isSigned && (nTy.isSigned || dTy.isSigned)) {
        int sign = -1;
        if (nNeg >= 0 && dNeg >= 0) {
          sign = addOpValue(Opcode::Xor, ScalarType::boolTy(), {nNeg, dNeg}, node, "q_sign");
        } else {
          sign = nNeg >= 0 ? nNeg : dNeg;
        }
        if (sign >= 0) {
          const int neg = addOpValue(Opcode::Neg, rt, {ext}, node);
          ext = addOpValue(Opcode::Mux, rt, {sign, neg, ext}, node);
        }
      }
      const int ones = constantValue(Value(rt, ~uint64_t{0}).toInt(), node);
      const int onesT = addOpValue(Opcode::Cast, rt, {ones}, node);
      return addOpValue(Opcode::Mux, rt, {dz, onesT, ext}, node, "quot");
    }

    // Remainder: magnitude in r (DW bits), sign follows the dividend; the
    // divisor==0 convention returns the dividend's *raw bits* zero-extended
    // (mirroring ops::rem).
    int rext = addOpValue(Opcode::Cast, rt, {r}, node, "r_ext");
    if (rt.isSigned && nTy.isSigned && nNeg >= 0) {
      const int neg = addOpValue(Opcode::Neg, rt, {rext}, node);
      rext = addOpValue(Opcode::Mux, rt, {nNeg, neg, rext}, node);
    }
    const int nRaw = addOpValue(Opcode::Cast, uN, {nVal}, node);
    const int nRawExt = addOpValue(Opcode::Cast, rt, {nRaw}, node);
    return addOpValue(Opcode::Mux, rt, {dz, nRawExt, rext}, node, "remn");
  }

  int constantValue(int64_t v, int node) {
    const int opIdx = addOp(Opcode::Ldc, ScalarType::intTy(), {}, node, fmt("c%0", v));
    out_.ops[static_cast<size_t>(opIdx)].imm = v;
    out_.values[static_cast<size_t>(out_.ops[static_cast<size_t>(opIdx)].result)].range = ValueRange::constant(v);
    return out_.ops[static_cast<size_t>(opIdx)].result;
  }

  void placeGenericOp(const mir::Instr& in, int node) {
    std::vector<int> operands;
    for (const auto& o : in.srcs) operands.push_back(valueOf(o, in.type, node));
    const int opIdx =
        addOp(in.op, in.type, std::move(operands), node,
              in.hasDst() ? fn_.regNames[static_cast<size_t>(in.dst)] : std::string());
    DpOp& o = out_.ops[static_cast<size_t>(opIdx)];
    o.imm = in.imm;
    o.aux0 = in.aux0;
    o.aux1 = in.aux1;
    o.symbol = in.symbol;
    if (in.op == Opcode::Ldc) {
      out_.values[static_cast<size_t>(o.result)].range =
          ValueRange::constant(Value::fromInt(in.type, in.imm).toInt());
    }
    if (in.hasDst()) regValue_[in.dst] = o.result;
  }

  // --- pipe nodes ------------------------------------------------------------

  /// For each diamond, values defined above the branch and consumed at or
  /// after the join are routed through a PIPE hard node (paper Fig 6 node 6)
  /// so every definition-reference pair stays adjoining.
  void insertPipeNodes() {
    for (const auto& [joinBid, muxNode] : joinMuxNode_) {
      const int d = dt_.idom[static_cast<size_t>(joinBid)];
      // Values defined in blocks dominating the branch head.
      auto definedAbove = [&](const DpValue& v) {
        if (v.inputPort >= 0) return true;
        if (v.def < 0) return false;
        const DpOp& defOp = out_.ops[static_cast<size_t>(v.def)];
        if (defOp.op == Opcode::Ldc) return false; // constants are free everywhere
        const DpNode& n = out_.nodes[static_cast<size_t>(defOp.node)];
        if (n.cfgBlock < 0) return false;
        return dt_.dominates(n.cfgBlock, d) || n.cfgBlock == d;
      };
      // Ops at or after the join (including its mux node).
      auto consumesAtOrAfterJoin = [&](const DpOp& o) {
        const DpNode& n = out_.nodes[static_cast<size_t>(o.node)];
        if (n.id == muxNode) return true;
        if (n.cfgBlock < 0) return false;
        return n.cfgBlock == joinBid || dt_.dominates(joinBid, n.cfgBlock);
      };

      std::map<int, std::vector<std::pair<int, size_t>>> rerouted; // value -> (op, operand slot)
      for (size_t oi = 0; oi < out_.ops.size(); ++oi) {
        DpOp& o = out_.ops[oi];
        if (!consumesAtOrAfterJoin(o)) continue;
        for (size_t s = 0; s < o.operands.size(); ++s) {
          const DpValue& v = out_.values[static_cast<size_t>(o.operands[s])];
          if (definedAbove(v)) rerouted[v.id].emplace_back(static_cast<int>(oi), s);
        }
      }
      if (rerouted.empty()) continue;
      const int pipeNode = newNode(NodeKind::Pipe, -1, fmt("pipe@bb%0", joinBid));
      for (const auto& [vid, uses] : rerouted) {
        const DpValue& src = out_.values[static_cast<size_t>(vid)];
        const int movIdx = addOp(Opcode::Mov, src.declared, {vid}, pipeNode, src.name + "_pipe");
        const int copy = out_.ops[static_cast<size_t>(movIdx)].result;
        for (const auto& [oi, slot] : uses) {
          out_.ops[static_cast<size_t>(oi)].operands[slot] = copy;
        }
        // Outputs / feedback stores referencing the original keep it (they
        // sit at the exit, where the copy is equivalent; keep rewiring
        // consistent there too).
        for (auto& port : out_.outputs) {
          if (port.value == vid && consumesAtOrAfterJoinPort()) port.value = copy;
        }
      }
    }
  }

  // Output ports conceptually live at the function exit, which every join
  // dominates in structured code.
  static bool consumesAtOrAfterJoinPort() { return true; }

  // --- bit-width inference ------------------------------------------------------

  void inferWidths() {
    // Topological order over values via op dependencies.
    const std::vector<int> order = topoOrderOps(out_);
    // Input ports and LPRs already carry their declared ranges.
    for (auto& fbv : out_.feedbacks) {
      if (fbv.lprValue >= 0) {
        out_.values[static_cast<size_t>(fbv.lprValue)].range = ValueRange::ofType(fbv.type);
      }
    }
    for (int oi : order) {
      DpOp& o = out_.ops[static_cast<size_t>(oi)];
      if (o.result < 0) continue;
      DpValue& res = out_.values[static_cast<size_t>(o.result)];
      const ScalarType declared = res.declared;
      auto rng = [&](size_t k) { return out_.values[static_cast<size_t>(o.operands[k])].range; };
      ValueRange r = ValueRange::ofType(declared);
      switch (o.op) {
        case Opcode::Ldc:
          r = ValueRange::constant(Value::fromInt(declared, o.imm).toInt());
          break;
        case Opcode::Mov:
        case Opcode::Cast:
          r = rng(0).convertTo(declared);
          break;
        case Opcode::Add: r = rng(0).add(rng(1)).convertTo(declared); break;
        case Opcode::Sub: r = rng(0).sub(rng(1)).convertTo(declared); break;
        case Opcode::Mul: r = rng(0).mul(rng(1)).convertTo(declared); break;
        case Opcode::Div:
          // Divide-by-zero yields all-ones at the result width; if the
          // divisor may be zero the hull must cover that.
          if (rng(1).contains(0)) {
            r = ValueRange::ofType(declared);
          } else {
            r = rng(0).divide(rng(1)).convertTo(declared);
          }
          break;
        case Opcode::Rem: r = rng(0).rem(rng(1)).convertTo(declared); break;
        case Opcode::Neg: r = rng(0).neg().convertTo(declared); break;
        case Opcode::And: r = rng(0).bitAnd(rng(1)).convertTo(declared); break;
        case Opcode::Or: r = rng(0).bitOr(rng(1)).convertTo(declared); break;
        case Opcode::Xor: r = rng(0).bitXor(rng(1)).convertTo(declared); break;
        case Opcode::Not: r = rng(0).bitNot().convertTo(declared); break;
        case Opcode::Shl: r = rng(0).shl(rng(1)).convertTo(declared); break;
        case Opcode::Shr: r = rng(0).shr(rng(1)).convertTo(declared); break;
        case Opcode::Seq:
        case Opcode::Sne:
        case Opcode::Slt:
        case Opcode::Sle:
        case Opcode::Sgt:
        case Opcode::Sge:
          r = ValueRange::boolean();
          break;
        case Opcode::Mux:
          r = rng(1).join(rng(2)).convertTo(declared);
          break;
        case Opcode::Lut: {
          const auto* t = [&]() -> const mir::FunctionIR::Table* {
            for (const auto& tb : out_.tables) {
              if (tb.name == o.symbol) return &tb;
            }
            return nullptr;
          }();
          if (t && !t->values.empty()) {
            int64_t lo = t->values[0], hi = t->values[0];
            for (int64_t v : t->values) {
              lo = std::min(lo, v);
              hi = std::max(hi, v);
            }
            r = ValueRange(lo, hi);
          }
          break;
        }
        case Opcode::BitSel:
          r = ValueRange(0, (ValueRange::Int{1} << (o.aux0 - o.aux1 + 1)) - 1);
          break;
        case Opcode::BitCat:
          r = ValueRange(0, (ValueRange::Int{1} << declared.width) - 1);
          break;
        case Opcode::Lpr:
          r = ValueRange::ofType(declared);
          break;
        default:
          break;
      }
      res.range = r;
      bool needsSign = false;
      const int w = r.requiredWidth(&needsSign);
      res.width = std::min(w, declared.width);
      res.isSigned = needsSign;
      out_.narrowedBits += declared.width - res.width;
    }
  }

  /// The paper's structural width rule: propagate widths forward from the
  /// port sizes through per-opcode growth formulas, truncating at each
  /// value's declared (C-semantics) width. No value ranges — a constant 3
  /// is as wide as its literal type says. Sound because every formula
  /// bounds the true value range of the operation.
  void inferWidthsPortOpcode() {
    const std::vector<int> order = topoOrderOps(out_);
    for (auto& fbv : out_.feedbacks) {
      if (fbv.lprValue >= 0) {
        DpValue& v = out_.values[static_cast<size_t>(fbv.lprValue)];
        v.width = fbv.type.width;
        v.isSigned = fbv.type.isSigned;
      }
    }
    for (int oi : order) {
      DpOp& o = out_.ops[static_cast<size_t>(oi)];
      if (o.result < 0) continue;
      DpValue& res = out_.values[static_cast<size_t>(o.result)];
      const ScalarType declared = res.declared;
      auto w = [&](size_t k) { return out_.values[static_cast<size_t>(o.operands[k])].width; };
      auto sgn = [&](size_t k) { return out_.values[static_cast<size_t>(o.operands[k])].isSigned; };
      int width = declared.width;
      bool isSigned = declared.isSigned;
      switch (o.op) {
        case Opcode::Ldc: {
          const int64_t c = Value::fromInt(declared, o.imm).toInt();
          width = c < 0 ? bitsForSigned(c) : bitsForUnsigned(static_cast<uint64_t>(c));
          isSigned = c < 0;
          break;
        }
        case Opcode::Add:
        case Opcode::Sub:
          isSigned = sgn(0) || sgn(1) || o.op == Opcode::Sub;
          width = std::max(w(0) + (isSigned && !sgn(0) ? 1 : 0),
                           w(1) + (isSigned && !sgn(1) ? 1 : 0)) + 1;
          break;
        case Opcode::Mul:
          width = w(0) + w(1);
          isSigned = sgn(0) || sgn(1);
          break;
        case Opcode::Neg:
          width = w(0) + 1;
          isSigned = true;
          break;
        case Opcode::And:
          // Unsigned & unsigned is bounded by the narrower operand; a
          // signed operand sign-extends, so the bound is the wider one.
          if (!sgn(0) && !sgn(1)) {
            width = std::min(w(0), w(1));
            isSigned = false;
          } else {
            width = std::max(w(0), w(1));
            isSigned = sgn(0) && sgn(1);
          }
          break;
        case Opcode::Or:
        case Opcode::Xor:
          // A mixed-signedness OR needs one extra bit so the unsigned
          // operand's full range still fits in the signed result.
          isSigned = sgn(0) || sgn(1);
          width = std::max(w(0) + (isSigned && !sgn(0) ? 1 : 0),
                           w(1) + (isSigned && !sgn(1) ? 1 : 0));
          break;
        case Opcode::Not:
          width = w(0);
          isSigned = true;
          break;
        case Opcode::Shl: {
          // Constant shift grows by the amount; variable shift grows to the
          // declared width.
          const DpValue& sh = out_.values[static_cast<size_t>(o.operands[1])];
          if (sh.def >= 0 && out_.ops[static_cast<size_t>(sh.def)].op == Opcode::Ldc) {
            width = w(0) + static_cast<int>(out_.ops[static_cast<size_t>(sh.def)].imm);
          } else {
            width = declared.width;
          }
          isSigned = sgn(0);
          break;
        }
        case Opcode::Shr:
          width = w(0);
          isSigned = sgn(0);
          break;
        case Opcode::Seq:
        case Opcode::Sne:
        case Opcode::Slt:
        case Opcode::Sle:
        case Opcode::Sgt:
        case Opcode::Sge:
          width = 1;
          isSigned = false;
          break;
        case Opcode::Mux:
          isSigned = sgn(1) || sgn(2);
          width = std::max(w(1) + (isSigned && !sgn(1) ? 1 : 0),
                           w(2) + (isSigned && !sgn(2) ? 1 : 0));
          break;
        case Opcode::Mov:
        case Opcode::Cast:
          width = std::min(w(0), declared.width);
          isSigned = declared.width < w(0) ? declared.isSigned : sgn(0);
          break;
        case Opcode::BitSel:
          width = o.aux0 - o.aux1 + 1;
          isSigned = false;
          break;
        case Opcode::BitCat:
          width = declared.width;
          isSigned = false;
          break;
        default:
          break;
      }
      res.width = std::max(1, std::min(width, declared.width));
      res.isSigned = res.width == declared.width ? declared.isSigned : isSigned;
      // Keep the range consistent with the (coarser) width for any
      // downstream consumer of `range`.
      res.range = ValueRange::ofType(ScalarType::make(res.width, res.isSigned));
      out_.narrowedBits += declared.width - res.width;
    }
  }

  // --- pipelining ------------------------------------------------------------------

  void assignStages() {
    std::vector<double> delay(out_.ops.size(), 0);
    for (size_t oi = 0; oi < out_.ops.size(); ++oi) {
      delay[oi] = timedOpDelayNs(out_, out_.ops[oi], synth::TimingModel::virtex2(),
                                 opt_.multStyle);
    }
    assignStagesGreedy(out_, delay, opt_.targetStageDelayNs, opt_.pipeline);
  }

  void computeStats() {
    out_.softNodeCount = 0;
    out_.hardNodeCount = 0;
    for (const auto& n : out_.nodes) {
      if (n.kind == NodeKind::Soft) {
        ++out_.softNodeCount;
      } else {
        ++out_.hardNodeCount;
      }
    }
    recomputePipelineStats(out_);
  }
};

} // namespace

// ---------------------------------------------------------------------------
// Staging primitives (shared between the Builder's seed placement and the
// timing-driven retime pass, src/dp/retime.cpp)
// ---------------------------------------------------------------------------

std::vector<int> topoOrderOps(const DataPath& d) {
  // Kahn over value dependencies; ops only depend on op-produced values.
  std::vector<int> indeg(d.ops.size(), 0);
  std::vector<std::vector<int>> consumers(d.values.size());
  for (size_t oi = 0; oi < d.ops.size(); ++oi) {
    for (int v : d.ops[oi].operands) {
      const int def = d.values[static_cast<size_t>(v)].def;
      if (def >= 0) ++indeg[oi];
      consumers[static_cast<size_t>(v)].push_back(static_cast<int>(oi));
    }
  }
  std::vector<int> ready, order;
  for (size_t oi = 0; oi < d.ops.size(); ++oi) {
    if (indeg[oi] == 0) ready.push_back(static_cast<int>(oi));
  }
  while (!ready.empty()) {
    const int oi = ready.back();
    ready.pop_back();
    order.push_back(oi);
    const int res = d.ops[static_cast<size_t>(oi)].result;
    if (res < 0) continue;
    for (int c : consumers[static_cast<size_t>(res)]) {
      if (--indeg[static_cast<size_t>(c)] == 0) ready.push_back(c);
    }
  }
  if (order.size() != d.ops.size()) {
    throw InternalCompilerError(
        fmt("datapath: op graph has a combinational cycle (%0 of %1 ops schedulable)",
            order.size(), d.ops.size()));
  }
  return order;
}

std::vector<int> feedbackConeOf(const DataPath& d) {
  // Ops on a path LPR -> SNX for the same register must share a stage (the
  // loop closes through one register, Fig 7).
  std::vector<int> coneOf(d.ops.size(), -1);
  for (size_t fi = 0; fi < d.feedbacks.size(); ++fi) {
    const auto& fb = d.feedbacks[fi];
    if (fb.lprValue < 0 || fb.snxValue < 0) continue;
    // Forward-reachable from the LPR value.
    std::vector<char> fromLpr(d.ops.size(), 0);
    std::function<void(int)> mark = [&](int vid) {
      for (size_t oi = 0; oi < d.ops.size(); ++oi) {
        if (fromLpr[oi]) continue;
        for (int op : d.ops[oi].operands) {
          if (op == vid) {
            fromLpr[oi] = 1;
            if (d.ops[oi].result >= 0) mark(d.ops[oi].result);
            break;
          }
        }
      }
    };
    mark(fb.lprValue);
    // Backward from the SNX value.
    std::vector<char> toSnx(d.ops.size(), 0);
    std::function<void(int)> markBack = [&](int vid) {
      const int def = d.values[static_cast<size_t>(vid)].def;
      if (def < 0 || toSnx[static_cast<size_t>(def)]) return;
      toSnx[static_cast<size_t>(def)] = 1;
      for (int op : d.ops[static_cast<size_t>(def)].operands) markBack(op);
    };
    markBack(fb.snxValue);
    for (size_t oi = 0; oi < d.ops.size(); ++oi) {
      if (fromLpr[oi] && toSnx[oi]) coneOf[oi] = static_cast<int>(fi);
    }
    // The LPR op itself belongs to the cone.
    const int lprDef = d.values[static_cast<size_t>(fb.lprValue)].def;
    if (lprDef >= 0) coneOf[static_cast<size_t>(lprDef)] = static_cast<int>(fi);
  }
  return coneOf;
}

void assignStagesGreedy(DataPath& d, const std::vector<double>& delay, double targetNs,
                        bool pipeline) {
  const std::vector<int> order = topoOrderOps(d);
  const std::vector<int> coneOf = feedbackConeOf(d);

  if (!pipeline) {
    for (auto& o : d.ops) o.stage = 0;
    d.stageCount = 1;
  } else {
    std::vector<int> coneStage(d.feedbacks.size(), -1);
    for (int oi : order) {
      DpOp& o = d.ops[static_cast<size_t>(oi)];
      int s = 0;
      double sameStageDelay = 0;
      for (int vid : o.operands) {
        const DpValue& v = d.values[static_cast<size_t>(vid)];
        if (v.def < 0) continue; // inputs arrive registered at stage 0
        const DpOp& defOp = d.ops[static_cast<size_t>(v.def)];
        if (defOp.op == Opcode::Ldc) continue; // constants are free
        if (defOp.stage > s) {
          s = defOp.stage;
          sameStageDelay = defOp.pathDelayNs;
        } else if (defOp.stage == s) {
          sameStageDelay = std::max(sameStageDelay, defOp.pathDelayNs);
        }
      }
      const double dly = delay[static_cast<size_t>(oi)];
      if (coneOf[static_cast<size_t>(oi)] >= 0) {
        // Feedback cone: everything lands in the cone's stage. External
        // inputs that already carry combinational delay are registered
        // into the cone (paper Fig 7: the feedback loop is its own latch
        // stage) so the loop stays short.
        int& cs = coneStage[static_cast<size_t>(coneOf[static_cast<size_t>(oi)])];
        const int wanted = sameStageDelay > 0 ? s + 1 : s;
        if (cs < 0) cs = wanted;
        cs = std::max(cs, wanted);
        o.stage = cs;
        o.pathDelayNs = dly;
      } else if (sameStageDelay + dly > targetNs && sameStageDelay > 0) {
        o.stage = s + 1;
        o.pathDelayNs = dly;
      } else {
        o.stage = s;
        o.pathDelayNs = sameStageDelay + dly;
      }
    }
    // Cone stages may have been raised after members were placed; apply
    // the final cone stage and repair downstream ordering.
    bool changed = true;
    while (changed) {
      changed = false;
      for (int oi : order) {
        DpOp& o = d.ops[static_cast<size_t>(oi)];
        if (coneOf[static_cast<size_t>(oi)] >= 0) {
          int& cs = coneStage[static_cast<size_t>(coneOf[static_cast<size_t>(oi)])];
          // External inputs that arrive later drag the whole cone later.
          for (int vid : o.operands) {
            const DpValue& v = d.values[static_cast<size_t>(vid)];
            if (v.def < 0) continue;
            const DpOp& defOp = d.ops[static_cast<size_t>(v.def)];
            if (defOp.op == Opcode::Ldc || coneOf[static_cast<size_t>(v.def)] >= 0) continue;
            if (defOp.stage > cs) {
              cs = defOp.stage;
              changed = true;
            }
          }
          if (o.stage != cs) {
            o.stage = cs;
            changed = true;
          }
          continue;
        }
        for (int vid : o.operands) {
          const DpValue& v = d.values[static_cast<size_t>(vid)];
          if (v.def < 0) continue;
          const DpOp& defOp = d.ops[static_cast<size_t>(v.def)];
          if (defOp.op == Opcode::Ldc) continue;
          if (defOp.stage > o.stage) {
            o.stage = defOp.stage;
            changed = true;
          }
        }
      }
    }
    int maxStage = 0;
    for (const auto& o : d.ops) maxStage = std::max(maxStage, o.stage);
    d.stageCount = maxStage + 1;
    for (size_t fi = 0; fi < d.feedbacks.size(); ++fi) {
      d.feedbacks[fi].stage = std::max(0, coneStage[fi]);
    }
    // Recompute within-stage path delays with the final stages.
    for (auto& o : d.ops) o.pathDelayNs = 0;
    for (int oi : order) {
      DpOp& o = d.ops[static_cast<size_t>(oi)];
      double in = 0;
      for (int vid : o.operands) {
        const DpValue& v = d.values[static_cast<size_t>(vid)];
        if (v.def < 0) continue;
        const DpOp& defOp = d.ops[static_cast<size_t>(v.def)];
        if (defOp.op == Opcode::Ldc) continue;
        if (defOp.stage == o.stage) in = std::max(in, defOp.pathDelayNs);
      }
      o.pathDelayNs = in + delay[static_cast<size_t>(oi)];
    }
  }

  // Output stages.
  for (size_t p = 0; p < d.outputs.size(); ++p) {
    const DpValue& v = d.values[static_cast<size_t>(d.outputs[p].value)];
    d.outputStage[p] = v.def >= 0 ? d.ops[static_cast<size_t>(v.def)].stage : 0;
  }
}

void recomputePipelineStats(DataPath& d) {
  d.pipelineRegisterBits = 0;
  d.balanceRegisterBits = 0;
  // Register bits for values crossing stage boundaries.
  const int finalStage = d.stageCount - 1;
  std::vector<int> lastUse(d.values.size(), -1);
  for (const auto& o : d.ops) {
    for (int vid : o.operands) {
      lastUse[static_cast<size_t>(vid)] = std::max(lastUse[static_cast<size_t>(vid)], o.stage);
    }
  }
  // Outputs are consumed at the final stage (delivered together).
  for (const auto& port : d.outputs) {
    lastUse[static_cast<size_t>(port.value)] = finalStage;
  }
  for (const auto& v : d.values) {
    if (v.def >= 0 && d.ops[static_cast<size_t>(v.def)].op == Opcode::Ldc) continue;
    const int defStage = v.def >= 0 ? d.ops[static_cast<size_t>(v.def)].stage : 0;
    const int last = lastUse[static_cast<size_t>(v.id)];
    if (last > defStage) {
      const int crossings = last - defStage;
      d.pipelineRegisterBits += static_cast<int64_t>(crossings) * v.width;
      d.balanceRegisterBits += static_cast<int64_t>(std::max(0, crossings - 1)) * v.width;
    }
  }
}

bool buildDataPath(const mir::FunctionIR& fn, DataPath& out, DiagEngine& diags,
                   const BuildOptions& options) {
  faultpoint("dp.build");
  Builder b(fn, out, diags, options);
  return b.run();
}

// ---------------------------------------------------------------------------
// Dumps
// ---------------------------------------------------------------------------

std::string DataPath::dump() const {
  std::ostringstream os;
  os << "datapath " << name << ": " << nodes.size() << " nodes, " << ops.size() << " ops, "
     << stageCount << " stages\n";
  for (const auto& n : nodes) {
    os << "  [" << (n.kind == NodeKind::Soft ? "soft" : (n.kind == NodeKind::Mux ? "MUX" : "PIPE"))
       << "] " << n.label << "\n";
    for (int oi : n.ops) {
      const DpOp& o = ops[static_cast<size_t>(oi)];
      os << "    s" << o.stage << ": ";
      if (o.result >= 0) {
        const DpValue& v = values[static_cast<size_t>(o.result)];
        os << (v.name.empty() ? fmt("t%0", v.id) : v.name) << ":" << (v.isSigned ? "s" : "u")
           << v.width << " = ";
      }
      os << mir::opcodeName(o.op);
      if (o.op == mir::Opcode::Ldc) os << ' ' << o.imm;
      if (!o.symbol.empty()) os << " @" << o.symbol;
      for (int vid : o.operands) {
        const DpValue& v = values[static_cast<size_t>(vid)];
        os << ' ' << (v.name.empty() ? fmt("t%0", v.id) : v.name);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string DataPath::dumpStructure() const {
  std::ostringstream os;
  os << "digraph " << name << " {\n";
  for (const auto& n : nodes) {
    os << "  n" << n.id << " [label=\"" << n.label << " ("
       << (n.kind == NodeKind::Soft ? "soft" : (n.kind == NodeKind::Mux ? "mux" : "pipe"))
       << ", " << n.ops.size() << " ops)\"];\n";
  }
  // Node-level edges: value produced in node A consumed in node B.
  std::set<std::pair<int, int>> edges;
  for (const auto& o : ops) {
    for (int vid : o.operands) {
      const DpValue& v = values[static_cast<size_t>(vid)];
      if (v.def < 0) continue;
      const int from = ops[static_cast<size_t>(v.def)].node;
      if (from != o.node) edges.insert({from, o.node});
    }
  }
  for (const auto& [a, b] : edges) os << "  n" << a << " -> n" << b << ";\n";
  os << "}\n";
  return os.str();
}

} // namespace roccc::dp
