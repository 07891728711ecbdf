#include "dp/datapath.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::dp {

using mir::Opcode;

// ---------------------------------------------------------------------------
// Delay model — looked up from the compile's synth::TimingModel (the
// Virtex-II-class table by default); used for latch placement.
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

std::optional<DivisionMagic> divisionMagic(const ValueRange& dividend, uint64_t divisor) {
  using Int = ValueRange::Int;
  const Int a = divisor;
  const Int lo = dividend.lo(), hi = dividend.hi();
  if (std::max(hi, -lo) < a) return DivisionMagic{0, 0};
  if (std::has_single_bit(divisor)) return DivisionMagic{1, std::countr_zero(divisor)};
  const auto exactAt = [&](Int x, Int m, int k) {
    const Int q = x >= 0 ? x / a : -(-x / a);
    return ((x * m) >> k) + (x < 0 ? 1 : 0) == q;
  };
  for (int k = 0;; ++k) {
    const Int m = ((Int{1} << k) + a - 1) / a;
    if (m * std::max(hi, -lo) >= Int{1} << 63) return std::nullopt;
    // With m = ceil(2^k / a) the error of x·m / 2^k grows with |x| within
    // each remainder class, so the worst dividends on each side of zero are
    // its far end and, below that, the last one whose remainder is a - 1.
    bool exact = true;
    if (hi >= 0) {
      const Int below = hi - hi % a - 1;
      exact = exactAt(hi, m, k) && (below < std::max<Int>(lo, 0) || exactAt(below, m, k));
    }
    if (exact && lo < 0) {
      const Int below = -lo - (-lo) % a - 1;
      exact = exactAt(lo, m, k) && (below < std::max<Int>(-hi, 1) || exactAt(-below, m, k));
    }
    if (exact) return DivisionMagic{static_cast<uint64_t>(m), k};
  }
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

/// Range of `o`'s result from its operands' ranges: the one transfer rule
/// of range analysis. inferWidths runs it over the finished data path; the
/// constant-division lowering runs it over the ops placed so far.
ValueRange transferRange(const DataPath& d, const DpOp& o) {
  const ScalarType declared = d.values[static_cast<size_t>(o.result)].declared;
  auto rng = [&](size_t k) { return d.values[static_cast<size_t>(o.operands[k])].range; };
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
        for (const auto& tb : d.tables) {
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
  return r;
}

/// The narrowest type holding every value of `r`.
ScalarType exactType(const ValueRange& r) {
  bool isSigned = false;
  const int w = r.requiredWidth(&isSigned);
  return ScalarType::make(w, isSigned);
}

/// Hull of every value the CSD shift-add tree for x·c computes: its
/// shifted terms, its partial sums and the product, for x in `x`.
ValueRange csdHull(const ValueRange& x, uint64_t c) {
  ValueRange hull = x;
  ValueRange::Int partial = 0;
  for (const auto& [pos, digit] : csdDigits(static_cast<int64_t>(c))) {
    const ValueRange term = x.shl(ValueRange::constant(pos));
    hull = hull.join(term);
    if (partial == 0 && digit < 0) hull = hull.join(term.neg()); // the leading Neg
    partial += digit * (ValueRange::Int{1} << pos);
    hull = hull.join(x.mul(ValueRange(partial, partial)));
  }
  return hull;
}

} // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

namespace {

// Staging (defined in the staging section below).
bool placeLatches(DataPath& d, const std::vector<double>& delay, const BuildOptions& opt,
                  double clockOverheadNs, DiagEngine& diags);
void recomputePipelineStats(DataPath& d);

class Builder {
 public:
  Builder(const mir::FunctionIR& fn, const synth::TimingModel& model, DataPath& out,
          DiagEngine& diags, const BuildOptions& opt)
      : fn_(fn), model_(model), out_(out), diags_(diags), opt_(opt) {}

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
    foldConstants();
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
  const synth::TimingModel& model_;
  DataPath& out_;
  DiagEngine& diags_;
  BuildOptions opt_;
  mir::DomTree dt_;
  bool failed_ = false;

  std::map<int, int> regValue_;  ///< MIR reg -> value id
  std::map<int, int> blockNode_; ///< MIR block -> soft node id
  std::map<int, int> joinMuxNode_; ///< join block -> mux node id
  std::vector<char> rangeKnown_; ///< value id -> placedRange has computed it

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
          case Opcode::Rem: {
            // A constant divisor becomes a multiply and a shift sized on the
            // dividend's proven range. A variable divisor builds the
            // restoring-divider array of sub/mux rows (one row per quotient
            // bit), as do a zero divisor and a range no 64-bit product
            // covers. The generic latch placement then pipelines the array —
            // this is how the compiler-generated udiv reaches a higher clock
            // rate than the hand IP at ~3x the area (Table 1).
            const int node = nodeFor();
            int v = emitConstantDivision(in, node);
            if (v < 0) v = emitRestoringDivider(in, in.op == Opcode::Rem, node);
            regValue_[in.dst] = v;
            break;
          }
          case Opcode::Mul: {
            // 'LUT' multiplier style: decompose constant multiplications
            // into canonical-signed-digit shift-adds (Table 1 FIR/DCT).
            if (opt_.multStyle == BuildOptions::MultStyle::Lut) {
              const auto c = constantOperand(in);
              if (c) {
                const int node = nodeFor();
                const mir::Operand& xOp = in.srcs[static_cast<size_t>(1 - c->side)];
                regValue_[in.dst] =
                    emitCsdMultiply(valueOf(xOp, in.type, node), c->imm, in.type, node);
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

  struct ConstantOperand {
    int side = 0;
    int64_t imm = 0;
    ScalarType type; ///< the type the shared semantics read `imm` at
  };

  /// Constant operand of a binary op, from srcs[firstSide] on: an
  /// immediate, or a register defined by Ldc.
  std::optional<ConstantOperand> constantOperand(const mir::Instr& in, int firstSide = 0) {
    for (int side = firstSide; side < 2; ++side) {
      const mir::Operand& o = in.srcs[static_cast<size_t>(side)];
      if (o.isImm()) return ConstantOperand{side, o.imm, in.type};
      if (o.isReg()) {
        const auto it = regValue_.find(o.reg);
        if (it != regValue_.end()) {
          const DpValue& v = out_.values[static_cast<size_t>(it->second)];
          if (v.def >= 0 && out_.ops[static_cast<size_t>(v.def)].op == Opcode::Ldc) {
            return ConstantOperand{side, out_.ops[static_cast<size_t>(v.def)].imm, v.declared};
          }
        }
      }
    }
    return std::nullopt;
  }

  /// x * c as a CSD shift-add tree at type t; returns the result value id
  /// (x itself when c is 1).
  int emitCsdMultiply(int x, int64_t c, ScalarType t, int node) {
    const bool negate = c < 0;
    if (negate) c = -c;
    if (c == 0) {
      const int z = addOp(Opcode::Ldc, t, {}, node, "c0");
      out_.values[static_cast<size_t>(out_.ops[static_cast<size_t>(z)].result)].range = ValueRange::constant(0);
      return out_.ops[static_cast<size_t>(z)].result;
    }
    int acc = -1;
    for (const auto& [pos, digit] : csdDigits(c)) {
      int term = x;
      if (pos > 0) {
        const int shOp = addOp(Opcode::Shl, t, {x, constantValue(pos, node)}, node);
        term = out_.ops[static_cast<size_t>(shOp)].result;
      }
      if (acc < 0) {
        if (digit < 0) {
          const int negOp = addOp(Opcode::Neg, t, {term}, node);
          acc = out_.ops[static_cast<size_t>(negOp)].result;
        } else {
          acc = term;
        }
      } else {
        const int addIdx = addOp(digit > 0 ? Opcode::Add : Opcode::Sub, t, {acc, term}, node);
        acc = out_.ops[static_cast<size_t>(addIdx)].result;
      }
    }
    if (negate) {
      const int negOp = addOp(Opcode::Neg, t, {acc}, node);
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

  /// The result of `op` at the narrowest type holding `r`, its exact range.
  int addExactValue(Opcode op, const ValueRange& r, std::vector<int> operands, int node,
                    const std::string& name = "") {
    return addOpValue(op, exactType(r), std::move(operands), node, name);
  }

  /// `v` at type t: itself when it already has it, else a Cast (wiring).
  int castTo(int v, ScalarType t, int node, const std::string& name) {
    if (out_.values[static_cast<size_t>(v)].declared == t) return v;
    return addOpValue(Opcode::Cast, t, {v}, node, name);
  }

  /// Range of value `vid` from the ops placed so far, by the transfer rule
  /// range analysis applies (memoized; placed ops never change).
  ValueRange placedRange(int vid) {
    rangeKnown_.resize(out_.values.size(), 0);
    std::vector<int> stack{vid};
    while (!stack.empty()) {
      const int v = stack.back();
      DpValue& val = out_.values[static_cast<size_t>(v)];
      if (rangeKnown_[static_cast<size_t>(v)] || val.def < 0) {
        rangeKnown_[static_cast<size_t>(v)] = 1; // ports keep their type's range
        stack.pop_back();
        continue;
      }
      const DpOp& o = out_.ops[static_cast<size_t>(val.def)];
      const size_t before = stack.size();
      for (int u : o.operands) {
        if (!rangeKnown_[static_cast<size_t>(u)]) stack.push_back(u);
      }
      if (stack.size() != before) continue;
      val.range = transferRange(out_, o);
      rangeKnown_[static_cast<size_t>(v)] = 1;
      stack.pop_back();
    }
    return out_.values[static_cast<size_t>(vid)].range;
  }

  /// x / c and x % c for a constant c (Granlund & Montgomery): x·m >> k,
  /// with the narrowest (m, k) exact on x's proven range (divisionMagic),
  /// then the round-toward-zero fix-up if x may be negative, a negation
  /// for c < 0, and x − |c|·(x / |c|) for the remainder. Every
  /// intermediate value gets a type that holds its range, so no engine
  /// wraps. Returns -1, having placed nothing, when c is not a constant or
  /// is 0, or when no exact product fits 64 bits.
  int emitConstantDivision(const mir::Instr& in, int node) {
    const ScalarType rt = in.type;
    const auto divisor = constantOperand(in, 1);
    if (!divisor) return -1;
    // The numbers the shared semantics divide: signed iff the result type
    // is; unsigned division reads the operands' raw bits.
    const Value dv = Value::fromInt(divisor->type, divisor->imm);
    const bool negDivisor = rt.isSigned && dv.toInt() < 0;
    uint64_t a = rt.isSigned ? static_cast<uint64_t>(dv.toInt()) : dv.toUnsigned();
    if (negDivisor) a = 0 - a;
    if (a == 0 || a > INT64_MAX) return -1;

    const mir::Operand& n = in.srcs[0];
    ValueRange range;
    if (n.isImm()) {
      range = ValueRange::constant(Value::fromInt(rt, n.imm).toInt());
    } else {
      const auto it = regValue_.find(n.reg);
      if (it == regValue_.end()) return -1; // the divider's valueOf reports it
      range = placedRange(it->second);
    }
    // An unsigned division reads a dividend's raw bits. Sema converts a
    // signed dividend to the unsigned type first, so a negative range
    // should not reach here; if one does, the divider handles it.
    if (!rt.isSigned && range.lo() < 0) return -1;

    const auto magic = divisionMagic(range, a);
    if (!magic) return -1;
    const bool negative = range.lo() < 0;
    const bool pow2 = std::has_single_bit(a);
    // A power of two rounds negative dividends toward zero by a bias of
    // a - 1 before the shift; any other divisor adds 1 after it.
    const ValueRange bias(0, pow2 && negative ? static_cast<ValueRange::Int>(a - 1) : 0);
    const ValueRange biased = range.add(bias);
    const ValueRange product = biased.mul(ValueRange::constant(static_cast<int64_t>(magic->m)));
    ValueRange quotient = product.shr(ValueRange::constant(magic->k));
    if (negative && !pow2) quotient = quotient.add(ValueRange(0, 1));
    const ValueRange csdTree = csdHull(biased, magic->m);
    const ValueRange remTree = csdHull(quotient, a);
    if (csdTree.requiredWidth() > 64 || remTree.requiredWidth() > 64) return -1;

    const int x = valueOf(n, rt, node);
    const bool isRem = in.op == Opcode::Rem;
    const auto lowMask = [&] { // a - 1
      return constantValue(static_cast<int64_t>(a - 1), node,
                           exactType(ValueRange(0, static_cast<ValueRange::Int>(a - 1))));
    };
    // A remainder whose quotient is always 0 is the dividend; a
    // non-negative one by a power of two is the dividend's low bits.
    if (isRem && magic->m == 0) return castTo(x, rt, node, "remn");
    if (isRem && pow2 && !negative) {
      const ValueRange low(0, std::min<ValueRange::Int>(range.hi(), a - 1));
      return castTo(addExactValue(Opcode::And, low, {x, lowMask()}, node), rt, node, "remn");
    }

    int q = -1; // trunc(x / a)
    if (magic->m == 0) {
      q = constantValue(0, node);
    } else {
      int xs = x;
      int isNeg = -1;
      if (negative) {
        isNeg = addOpValue(Opcode::Slt, ScalarType::boolTy(), {x, constantValue(0, node)}, node,
                           "n_neg");
      }
      if (pow2 && negative) {
        const int b = addExactValue(Opcode::Mux, bias, {isNeg, lowMask(), constantValue(0, node)},
                                    node, "q_bias");
        xs = addExactValue(Opcode::Add, biased, {x, b}, node);
      }
      q = emitCsdMultiply(xs, static_cast<int64_t>(magic->m), exactType(csdTree), node);
      if (magic->k > 0) {
        q = addExactValue(Opcode::Shr, product.shr(ValueRange::constant(magic->k)),
                          {q, constantValue(magic->k, node)}, node, "q_shr");
      }
      if (negative && !pow2) q = addExactValue(Opcode::Add, quotient, {q, isNeg}, node);
    }
    if (!isRem) {
      return negDivisor ? addOpValue(Opcode::Neg, rt, {q}, node, "quot")
                        : castTo(q, rt, node, "quot");
    }
    const int aq = emitCsdMultiply(q, static_cast<int64_t>(a), exactType(remTree), node);
    return addOpValue(Opcode::Sub, rt, {x, aq}, node, "remn");
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

  int constantValue(int64_t v, int node, ScalarType t = ScalarType::intTy()) {
    const int opIdx = addOp(Opcode::Ldc, t, {}, node, fmt("c%0", v));
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

  // --- constants -------------------------------------------------------------

  /// One Ldc per (node, value, type): repeats (a shift amount per CSD term,
  /// the same immediate in two ops) are folded into the first, and
  /// constants nothing reads (the multiplier a CSD expansion replaced) are
  /// dropped, with op and value ids compacted.
  void foldConstants() {
    std::vector<int> alias(out_.values.size());
    for (size_t v = 0; v < alias.size(); ++v) alias[v] = static_cast<int>(v);
    std::map<std::tuple<int, int64_t, int, bool>, int> first;
    for (const DpOp& o : out_.ops) {
      if (o.op != Opcode::Ldc) continue;
      const ScalarType t = out_.values[static_cast<size_t>(o.result)].declared;
      const auto [it, fresh] =
          first.emplace(std::tuple(o.node, o.imm, t.width, t.isSigned), o.result);
      if (!fresh) alias[static_cast<size_t>(o.result)] = it->second;
    }
    std::vector<char> read(out_.values.size(), 0);
    const auto use = [&](int& vid) {
      if (vid < 0) return;
      vid = alias[static_cast<size_t>(vid)];
      read[static_cast<size_t>(vid)] = 1;
    };
    for (DpOp& o : out_.ops) {
      for (int& vid : o.operands) use(vid);
    }
    for (auto& port : out_.outputs) use(port.value);
    for (auto& fb : out_.feedbacks) use(fb.snxValue);

    // Compact: drop unread Ldc ops and their values, renumber the rest.
    std::vector<int> opId(out_.ops.size(), -1), valueId(out_.values.size(), -1);
    std::vector<DpOp> ops;
    for (size_t oi = 0; oi < out_.ops.size(); ++oi) {
      const DpOp& o = out_.ops[oi];
      if (o.op == Opcode::Ldc && !read[static_cast<size_t>(o.result)]) continue;
      opId[oi] = static_cast<int>(ops.size());
      ops.push_back(std::move(out_.ops[oi]));
    }
    std::vector<DpValue> values;
    for (size_t v = 0; v < out_.values.size(); ++v) {
      const int def = out_.values[v].def;
      if (def >= 0 && opId[static_cast<size_t>(def)] < 0) continue;
      valueId[v] = static_cast<int>(values.size());
      values.push_back(std::move(out_.values[v]));
      values.back().id = valueId[v];
      if (def >= 0) values.back().def = opId[static_cast<size_t>(def)];
    }
    const auto remap = [&](int& vid) {
      if (vid >= 0) vid = valueId[static_cast<size_t>(vid)];
    };
    for (DpOp& o : ops) {
      remap(o.result);
      for (int& vid : o.operands) remap(vid);
    }
    for (auto& port : out_.inputs) remap(port.value);
    for (auto& port : out_.outputs) remap(port.value);
    for (auto& fb : out_.feedbacks) {
      remap(fb.snxValue);
      remap(fb.lprValue);
    }
    for (DpNode& n : out_.nodes) {
      for (int& oi : n.ops) oi = opId[static_cast<size_t>(oi)];
      std::erase(n.ops, -1);
    }
    out_.ops = std::move(ops);
    out_.values = std::move(values);
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
      const DpOp& o = out_.ops[static_cast<size_t>(oi)];
      if (o.result < 0) continue;
      DpValue& res = out_.values[static_cast<size_t>(o.result)];
      res.range = transferRange(out_, o);
      bool needsSign = false;
      const int w = res.range.requiredWidth(&needsSign);
      res.width = std::min(w, res.declared.width);
      res.isSigned = needsSign;
      out_.narrowedBits += res.declared.width - res.width;
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
      delay[oi] = timedOpDelayNs(out_, out_.ops[oi], model_, opt_.multStyle);
    }
    if (!placeLatches(out_, delay, opt_, model_.clockOverheadNs, diags_)) failed_ = true;
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
// Staging: latch placement (section 4.2.3) in one pass over the data path —
// a greedy ASAP cut, then merging of adjacent stages that fit the budget
// together, then balancing of boundary ops — all priced on one delay table.
// Feedback-register semantics hold throughout: every LPR -> SNX cone keeps
// its ops in one stage (the loop closes through one register per
// iteration, Fig 7), and a consumer never sits in an earlier stage than its
// producer (rtl::from_dp relies on it).
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

namespace {

constexpr double kEps = 1e-9;
/// Safety bound on the balance loop (each iteration moves >= 1 op).
constexpr int kMaxBalanceIterations = 256;

/// Feedback-cone membership: for each op, the index of the feedback register
/// whose LPR -> SNX cone it belongs to, or -1.
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

/// Greedy ASAP cut: walks ops in topological order accumulating
/// within-stage delay, opening a new stage when the budget would be
/// exceeded, pinning each feedback cone to one stage. Rewrites op stages
/// and stageCount; path delays are left to computeStageDelays.
void assignStagesGreedy(DataPath& d, const std::vector<double>& delay, double targetNs,
                        bool pipeline, const std::vector<int>& order,
                        const std::vector<int>& coneOf) {
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
  }
}

/// Recomputes every op's within-stage accumulated delay and returns the
/// per-stage worst (the stage's combinational depth, routing included).
std::vector<double> computeStageDelays(DataPath& d, const std::vector<double>& delay,
                                       const std::vector<int>& order) {
  int maxStage = 0;
  for (const auto& o : d.ops) maxStage = std::max(maxStage, o.stage);
  std::vector<double> worst(static_cast<size_t>(maxStage) + 1, 0.0);
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
    worst[static_cast<size_t>(o.stage)] = std::max(worst[static_cast<size_t>(o.stage)],
                                                   o.pathDelayNs);
  }
  return worst;
}

/// The smallest budget each op can ever fit in: its own delay, except that a
/// feedback cone is unsplittable, so every cone member carries the cone's
/// longest internal path.
std::vector<double> unsplittableUnits(const DataPath& d, const std::vector<double>& delay,
                                      const std::vector<int>& order,
                                      const std::vector<int>& coneOf) {
  std::vector<double> unit = delay;
  std::vector<double> acc(d.ops.size(), 0.0); // longest cone-internal chain ending at op
  std::vector<double> coneWorst(d.feedbacks.size(), 0.0);
  for (int oi : order) {
    const int cone = coneOf[static_cast<size_t>(oi)];
    if (cone < 0) continue;
    const DpOp& o = d.ops[static_cast<size_t>(oi)];
    double in = 0;
    for (int vid : o.operands) {
      const int def = d.values[static_cast<size_t>(vid)].def;
      if (def >= 0 && coneOf[static_cast<size_t>(def)] == cone) {
        in = std::max(in, acc[static_cast<size_t>(def)]);
      }
    }
    acc[static_cast<size_t>(oi)] = in + delay[static_cast<size_t>(oi)];
    coneWorst[static_cast<size_t>(cone)] =
        std::max(coneWorst[static_cast<size_t>(cone)], acc[static_cast<size_t>(oi)]);
  }
  for (size_t oi = 0; oi < d.ops.size(); ++oi) {
    if (coneOf[oi] >= 0) unit[oi] = coneWorst[static_cast<size_t>(coneOf[oi])];
  }
  return unit;
}

/// Fuses adjacent stage pairs whose combined path still fits the budget,
/// rescanning from the front after each fusion until no pair fits (loose
/// targets collapse to shallow pipelines). Returns the number of fusions.
int mergeStages(DataPath& d, const std::vector<double>& delay, const std::vector<int>& order,
                double targetNs) {
  int merges = 0;
  bool mergedAny = true;
  while (mergedAny && d.stageCount > 1) {
    mergedAny = false;
    for (int s = 0; s + 1 < d.stageCount; ++s) {
      std::vector<int> saved(d.ops.size());
      for (size_t oi = 0; oi < d.ops.size(); ++oi) saved[oi] = d.ops[oi].stage;
      for (auto& o : d.ops) {
        if (o.stage > s) o.stage -= 1; // tentatively fuse s+1 into s
      }
      const std::vector<double> worst = computeStageDelays(d, delay, order);
      if (worst[static_cast<size_t>(s)] <= targetNs + kEps) {
        d.stageCount -= 1;
        merges += 1;
        mergedAny = true;
        break; // rescan from the front with the new numbering
      }
      for (size_t oi = 0; oi < d.ops.size(); ++oi) d.ops[oi].stage = saved[oi]; // revert
    }
  }
  return merges;
}

/// Moves chain-head ops down (and chain-tail ops up) out of the critical
/// stage while the global worst-stage delay improves. Never changes the
/// stage count: it trades slack between neighbors, which raises fmax above
/// the greedy cut at the same depth. Returns the number of moves.
int balanceStages(DataPath& d, const std::vector<double>& delay, const std::vector<int>& order,
                  const std::vector<int>& coneOf) {
  std::vector<std::vector<int>> consumers(d.values.size());
  for (size_t oi = 0; oi < d.ops.size(); ++oi) {
    for (int vid : d.ops[oi].operands) {
      consumers[static_cast<size_t>(vid)].push_back(static_cast<int>(oi));
    }
  }
  int moves = 0;
  std::vector<double> worst = computeStageDelays(d, delay, order);
  for (int iter = 0; iter < kMaxBalanceIterations; ++iter) {
    int critical = 0;
    for (int s = 1; s < d.stageCount; ++s) {
      if (worst[static_cast<size_t>(s)] > worst[static_cast<size_t>(critical)]) critical = s;
    }
    const double before = worst[static_cast<size_t>(critical)];
    bool moved = false;
    for (int oi : order) {
      DpOp& o = d.ops[static_cast<size_t>(oi)];
      if (o.stage != critical || coneOf[static_cast<size_t>(oi)] >= 0) continue;
      if (o.result < 0 || delay[static_cast<size_t>(oi)] <= 0) continue;
      // Head hoist: every real operand already lives in an earlier stage.
      bool headOk = critical > 0;
      // Tail push: every consumer lives in a later stage.
      bool tailOk = critical + 1 < d.stageCount;
      for (int vid : o.operands) {
        const int def = d.values[static_cast<size_t>(vid)].def;
        if (def < 0 || d.ops[static_cast<size_t>(def)].op == Opcode::Ldc) continue;
        if (d.ops[static_cast<size_t>(def)].stage >= critical) headOk = false;
      }
      for (int c : consumers[static_cast<size_t>(o.result)]) {
        if (d.ops[static_cast<size_t>(c)].stage <= critical) tailOk = false;
      }
      for (int dir = 0; dir < 2 && !moved; ++dir) {
        const bool hoist = dir == 0;
        if (hoist ? !headOk : !tailOk) continue;
        o.stage = hoist ? critical - 1 : critical + 1;
        std::vector<double> trial = computeStageDelays(d, delay, order);
        double trialWorst = 0;
        for (double t : trial) trialWorst = std::max(trialWorst, t);
        if (trialWorst < before - kEps) {
          worst = std::move(trial);
          moves += 1;
          moved = true;
        } else {
          o.stage = critical;
        }
      }
      if (moved) break;
    }
    if (!moved) break;
  }
  return moves;
}

/// Places d's pipeline latches on the per-op `delay` table: greedy cut,
/// merge, balance. Rewrites op stages and path delays, stageCount and the
/// feedback/output stages, and fills d.timing. Returns false only on a
/// diagnosed internal inconsistency.
bool placeLatches(DataPath& d, const std::vector<double>& delay, const BuildOptions& opt,
                  double clockOverheadNs, DiagEngine& diags) {
  const double targetNs = opt.targetStageDelayNs;
  const std::vector<int> order = topoOrderOps(d);
  const std::vector<int> coneOf = feedbackConeOf(d);
  StageTiming& rep = d.timing;
  rep = StageTiming{};
  rep.targetNs = targetNs;

  assignStagesGreedy(d, delay, targetNs, opt.pipeline, order, coneOf);
  rep.merges = mergeStages(d, delay, order, targetNs);
  rep.movedOps = balanceStages(d, delay, order, coneOf);

  // Final bookkeeping: stage count, feedback/output stages, stage delays.
  int maxStage = 0;
  for (const auto& o : d.ops) maxStage = std::max(maxStage, o.stage);
  d.stageCount = maxStage + 1;
  for (size_t fi = 0; fi < d.feedbacks.size(); ++fi) {
    d.feedbacks[fi].stage = 0;
    for (size_t oi = 0; oi < d.ops.size(); ++oi) {
      if (coneOf[oi] == static_cast<int>(fi)) {
        d.feedbacks[fi].stage = d.ops[oi].stage;
        break;
      }
    }
  }
  for (size_t p = 0; p < d.outputs.size(); ++p) {
    const DpValue& v = d.values[static_cast<size_t>(d.outputs[p].value)];
    d.outputStage[p] = v.def >= 0 ? d.ops[static_cast<size_t>(v.def)].stage : 0;
  }
  rep.stageDelayNs = computeStageDelays(d, delay, order);
  for (double s : rep.stageDelayNs) rep.worstStageNs = std::max(rep.worstStageNs, s);
  rep.criticalPathNs = rep.worstStageNs + clockOverheadNs;
  rep.fmaxMHz = rep.criticalPathNs > 0 ? 1000.0 / rep.criticalPathNs : 0.0;
  rep.slackNs = targetNs - rep.worstStageNs;
  // Pipelined, the budget is met unless one unsplittable unit exceeds it;
  // unpipelined, the one stage has to fit it.
  if (opt.pipeline) {
    for (double u : unsplittableUnits(d, delay, order, coneOf)) {
      if (u > targetNs + kEps) rep.feasible = false;
    }
  } else {
    rep.feasible = rep.worstStageNs <= targetNs + kEps;
  }

  // Invariant audit: producers before consumers, cones in one stage, a
  // feasible budget met. A violation here is a compiler bug, not an input
  // error.
  for (size_t oi = 0; oi < d.ops.size(); ++oi) {
    for (int vid : d.ops[oi].operands) {
      const int def = d.values[static_cast<size_t>(vid)].def;
      if (def < 0 || d.ops[static_cast<size_t>(def)].op == Opcode::Ldc) continue;
      if (d.ops[static_cast<size_t>(def)].stage > d.ops[oi].stage) {
        diags.error({}, fmt("latch placement: op %0 (stage %1) consumes a stage-%2 value", oi,
                            d.ops[oi].stage, d.ops[static_cast<size_t>(def)].stage));
        return false;
      }
    }
  }
  for (size_t fi = 0; fi < d.feedbacks.size(); ++fi) {
    for (size_t oi = 0; oi < d.ops.size(); ++oi) {
      if (coneOf[oi] == static_cast<int>(fi) && d.ops[oi].stage != d.feedbacks[fi].stage) {
        diags.error({}, fmt("latch placement: feedback '%0' cone split across stages",
                            d.feedbacks[fi].name));
        return false;
      }
    }
  }
  if (rep.feasible && rep.worstStageNs > targetNs + kEps) {
    diags.error({}, fmt("latch placement: feasible target %0 ns missed (worst stage %1 ns)",
                        targetNs, rep.worstStageNs));
    return false;
  }
  return true;
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

} // namespace

bool buildDataPath(const mir::FunctionIR& fn, const synth::TimingModel& model, DataPath& out,
                   DiagEngine& diags, const BuildOptions& options) {
  faultpoint("dp.build");
  Builder b(fn, model, out, diags, options);
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
