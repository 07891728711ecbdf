#include "interp/interp.hpp"

#include <algorithm>

#include "support/cosrom.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::interp {

using namespace roccc::ast;

namespace {

/// Control-flow signal for 'return;'.
struct ReturnSignal {};

/// Throws the InterpError; kept out of line so the formatting code stays
/// off the interpreter's hot paths.
template <typename... Args>
[[noreturn, gnu::cold, gnu::noinline]] void fail(SourceLoc loc, std::string_view pattern,
                                                  const Args&... args) {
  throw InterpError{loc, fmt(pattern, args...)};
}

} // namespace

int64_t cosSinLookupReference(int index, bool sine) { return cosRomEntry(index, sine); }

void Interpreter::bumpStep(SourceLoc loc) {
  if (++steps_ > stepLimit_) fail(loc, "step limit %0 exceeded (runaway loop?)", stepLimit_);
}

const Function& Interpreter::function(const std::string& name) const {
  const Function* fn = module_.findFunction(name);
  if (!fn) throw InterpError{{}, fmt("no function named '%0'", name)};
  return *fn;
}

Interpreter::Slot& Interpreter::slotOf(const VarDecl& d, Frame& f) {
  Frame& store = d.storage == Storage::Global ? globals_ : f;
  const auto i = static_cast<size_t>(d.slot); // -1 (unnumbered) wraps past the end
  if (i >= store.size()) fail(d.loc, "'%0' has no storage slot (module not analyzed?)", d.name);
  return store[i];
}

namespace {

/// Fills an array's storage from `io` when it binds the name, else from the
/// declared initializer (zeros past its end). Returns whether `io` bound it.
bool bindArray(const VarDecl& d, std::vector<Value>& elems, const KernelIO* io) {
  const int64_t n = d.type.elementCount();
  elems.assign(static_cast<size_t>(n), Value(d.type.scalar, 0));
  if (io) {
    const auto it = io->arrays.find(d.name);
    if (it != io->arrays.end()) {
      if (static_cast<int64_t>(it->second.size()) != n) {
        throw InterpError{d.loc, fmt("array '%0' expects %1 elements, %2 bound", d.name, n,
                                     it->second.size())};
      }
      for (size_t i = 0; i < elems.size(); ++i) elems[i] = Value::fromInt(d.type.scalar, it->second[i]);
      return true;
    }
  }
  for (size_t i = 0; i < elems.size() && i < d.init.size(); ++i) {
    elems[i] = Value::fromInt(d.type.scalar, d.init[i]);
  }
  return false;
}

} // namespace

void Interpreter::resetGlobals(const KernelIO* io) {
  globals_.resize(module_.globals.size());
  for (size_t i = 0; i < globals_.size(); ++i) {
    const VarDecl& g = module_.globals[i];
    Slot& s = globals_[i];
    if (g.type.isArray()) {
      // Nothing writes a const array, so its initializer is copied once.
      if (g.isConst && s.set && !(io && io->arrays.count(g.name))) continue;
      s.set = false; // until it holds the initializer again
      if (!bindArray(g, s.elems, io)) s.set = g.isConst;
      continue;
    }
    // io.scalars may override a global scalar's initial value.
    int64_t init = g.init.empty() ? 0 : g.init[0];
    if (io) {
      const auto it = io->scalars.find(g.name);
      if (it != io->scalars.end()) init = it->second;
    }
    s.value = Value::fromInt(g.type.scalar, init);
    s.set = true;
  }
}

void Interpreter::enterFrame(const Function& fn, Frame& frame, const KernelIO* io) {
  frame.resize(static_cast<size_t>(fn.frameSlots));
  for (Slot& s : frame) s.set = false;
  for (const VarDecl& p : fn.params) {
    Slot& s = slotOf(p, frame);
    if (p.type.isArray()) {
      bindArray(p, s.elems, io);
    } else if (p.mode == ParamMode::Out) {
      s.value = Value(p.type.scalar, 0);
      s.set = true;
    } else if (io) {
      const auto it = io->scalars.find(p.name);
      if (it == io->scalars.end()) throw InterpError{p.loc, fmt("scalar input '%0' not bound", p.name)};
      s.value = Value::fromInt(p.type.scalar, it->second);
      s.set = true;
    }
  }
}

void Interpreter::execBody(const Function& fn, Frame& frame) {
  try {
    execBlockInCurrentScope(*fn.body, frame);
  } catch (const ReturnSignal&) {
    // normal early return
  }
}

KernelIO Interpreter::run(const std::string& fnName, const KernelIO& io) {
  const Function& fn = function(fnName);
  steps_ = 0;
  resetGlobals(&io);
  Frame frame;
  enterFrame(fn, frame, &io);
  execBody(fn, frame);

  KernelIO out;
  const auto exportArray = [&](const VarDecl& d, const Slot& s) {
    auto& vec = out.arrays[d.name];
    vec.clear();
    vec.reserve(s.elems.size());
    for (const Value& v : s.elems) vec.push_back(v.toInt());
  };
  for (size_t i = 0; i < globals_.size(); ++i) {
    if (module_.globals[i].type.isArray()) exportArray(module_.globals[i], globals_[i]);
  }
  for (const VarDecl& p : fn.params) {
    const Slot& s = slotOf(p, frame);
    if (p.type.isArray()) {
      exportArray(p, s);
    } else if (p.mode == ParamMode::Out) {
      out.scalars[p.name] = s.value.toInt();
    }
  }
  // Global scalars (e.g. the accumulator's 'int sum') are also reported.
  for (size_t i = 0; i < globals_.size(); ++i) {
    if (!module_.globals[i].type.isArray()) out.scalars[module_.globals[i].name] = globals_[i].value.toInt();
  }
  return out;
}

Interpreter::PreparedCall Interpreter::prepare(const std::string& fnName,
                                               const std::vector<std::string>& inputs,
                                               const std::vector<std::string>& outputs) {
  const Function& fn = function(fnName);
  const auto resolve = [&](const std::string& name, ParamMode mode) -> const VarDecl* {
    for (const VarDecl& p : fn.params) {
      if (p.name == name && !p.type.isArray() && p.mode == mode) return &p;
    }
    for (const VarDecl& g : module_.globals) {
      if (g.name == name && !g.type.isArray()) return &g;
    }
    throw InterpError{fn.loc, fmt("'%0' has no scalar %1 named '%2'", fn.name,
                                  mode == ParamMode::In ? "input" : "output", name)};
  };
  PreparedCall call(*this, fn);
  for (const std::string& n : inputs) call.inputs_.push_back(resolve(n, ParamMode::In));
  for (const std::string& n : outputs) call.outputs_.push_back(resolve(n, ParamMode::Out));
  for (const VarDecl& p : fn.params) {
    if (p.type.isArray() || p.mode != ParamMode::In) continue;
    if (std::find(call.inputs_.begin(), call.inputs_.end(), &p) == call.inputs_.end()) {
      throw InterpError{p.loc, fmt("scalar input '%0' not bound", p.name)};
    }
  }
  return call;
}

void Interpreter::PreparedCall::operator()(std::span<const Value> inputs, std::span<Value> outputs) {
  Interpreter& in = *interp_;
  if (inputs.size() != inputs_.size() || outputs.size() != outputs_.size()) {
    throw InterpError{fn_->loc, fmt("'%0' was prepared with %1 inputs and %2 outputs, called with %3 and %4",
                                    fn_->name, inputs_.size(), outputs_.size(), inputs.size(),
                                    outputs.size())};
  }
  in.steps_ = 0;
  in.resetGlobals(nullptr);
  in.enterFrame(*fn_, frame_, nullptr);
  for (size_t i = 0; i < inputs_.size(); ++i) {
    Slot& s = in.slotOf(*inputs_[i], frame_);
    s.value = inputs[i].convertTo(inputs_[i]->type.scalar);
    s.set = true;
  }
  in.execBody(*fn_, frame_);
  for (size_t i = 0; i < outputs_.size(); ++i) outputs[i] = in.slotOf(*outputs_[i], frame_).value;
}

void Interpreter::execBlockInCurrentScope(const BlockStmt& b, Frame& f) {
  for (const auto& s : b.stmts) execStmt(*s, f);
}

int64_t Interpreter::flatIndex(const VarDecl& d, const std::vector<ExprPtr>& indices, SourceLoc loc,
                               Frame& f) {
  int64_t flat = 0;
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t idx = evalExpr(*indices[i], f).toInt();
    if (idx < 0 || idx >= d.type.dims[i]) {
      fail(loc, "index %0 out of bounds [0, %1) for '%2'", idx, d.type.dims[i], d.name);
    }
    flat = flat * d.type.dims[i] + idx;
  }
  return flat;
}

void Interpreter::execStmt(const Stmt& s, Frame& f) {
  bumpStep(s.loc);
  switch (s.kind) {
    case StmtKind::Block:
      execBlockInCurrentScope(static_cast<const BlockStmt&>(s), f);
      break;
    case StmtKind::Decl: {
      const auto& d = static_cast<const DeclStmt&>(s);
      if (d.var.type.isArray()) {
        throw InterpError{d.loc, "local arrays are not part of the ROCCC subset"};
      }
      Value init(d.var.type.scalar, 0);
      if (d.init) init = evalExpr(*d.init, f).convertTo(d.var.type.scalar);
      Slot& slot = slotOf(d.var, f);
      slot.value = init;
      slot.set = true;
      break;
    }
    case StmtKind::Assign: {
      const auto& a = static_cast<const AssignStmt&>(s);
      const Value v = evalExpr(*a.value, f);
      const VarDecl* d = a.target.decl;
      if (!d) fail(a.loc, "unresolved assignment target '%0' (module not analyzed?)", a.target.name);
      Slot& slot = slotOf(*d, f);
      if (a.target.kind == LValue::Kind::ArrayElem) {
        if (slot.elems.empty()) fail(a.loc, "array '%0' has no storage", d->name);
        const int64_t flat = flatIndex(*d, a.target.indices, a.loc, f);
        slot.elems[static_cast<size_t>(flat)] = v.convertTo(d->type.scalar);
      } else {
        // A scalar, or '*p' for an out-parameter, whose slot holds its value.
        slot.value = v.convertTo(d->type.scalar);
        slot.set = true;
      }
      break;
    }
    case StmtKind::If: {
      const auto& i = static_cast<const IfStmt&>(s);
      if (evalExpr(*i.cond, f).toBool()) {
        execStmt(*i.thenBody, f);
      } else if (i.elseBody) {
        execStmt(*i.elseBody, f);
      }
      break;
    }
    case StmtKind::For: {
      const auto& l = static_cast<const ForStmt&>(s);
      const int64_t begin = evalExpr(*l.begin, f).toInt();
      const int64_t end = evalExpr(*l.end, f).toInt();
      Slot& iv = slotOf(*l.inductionDecl, f);
      for (int64_t i = begin; i < end; i += l.step) {
        bumpStep(l.loc);
        iv.value = Value::ofInt(i);
        iv.set = true;
        execStmt(*l.body, f);
      }
      break;
    }
    case StmtKind::Return:
      throw ReturnSignal{}; // unwound by callFunction / execBody
    case StmtKind::CallStmt: {
      const auto& c = static_cast<const CallStmt&>(s);
      const auto& call = static_cast<const CallExpr&>(*c.call);
      if (call.intrinsic != intrinsics::Id::None) {
        evalIntrinsic(call, f);
      } else {
        const Function* callee = module_.findFunction(call.callee);
        if (!callee) {
          throw InternalCompilerError(
              fmt("interp: call to unknown function '%0' survived sema", call.callee));
        }
        callFunction(*callee, call, f);
      }
      break;
    }
  }
}

void Interpreter::callFunction(const Function& fn, const CallExpr& call, Frame& caller) {
  // Globals are shared through globals_; the callee gets fresh locals.
  Frame frame(static_cast<size_t>(fn.frameSlots));
  for (size_t i = 0; i < fn.params.size(); ++i) {
    const VarDecl& p = fn.params[i];
    if (p.type.isArray()) {
      throw InterpError{p.loc, "array arguments to user calls are not supported (inline the callee)"};
    }
    Slot& s = slotOf(p, frame);
    // Out-params write into the callee's slot, copied back at return.
    s.value = p.mode == ParamMode::Out ? Value(p.type.scalar, 0)
                                       : evalExpr(*call.args[i], caller).convertTo(p.type.scalar);
    s.set = true;
  }

  execBody(fn, frame);

  for (size_t i = 0; i < fn.params.size(); ++i) {
    const VarDecl& p = fn.params[i];
    if (p.mode != ParamMode::Out) continue;
    const VarDecl& callerVar = *static_cast<const VarRefExpr&>(*call.args[i]).decl;
    Slot& s = slotOf(callerVar, caller);
    s.value = slotOf(p, frame).value.convertTo(callerVar.type.scalar);
    s.set = true;
  }
}

Value Interpreter::evalIntrinsic(const CallExpr& c, Frame& f) {
  switch (c.intrinsic) {
    case intrinsics::Id::LoadPrev:
      // In software semantics, the "previous" value is simply the variable's
      // current value at this point of the iteration (Fig 4 b vs c).
      return evalExpr(*c.args[0], f);
    case intrinsics::Id::StoreNext: {
      const VarDecl& target = *static_cast<const VarRefExpr&>(*c.args[0]).decl;
      const Value v = evalExpr(*c.args[1], f);
      Slot& slot = slotOf(target, f);
      slot.value = v.convertTo(target.type.scalar);
      slot.set = true;
      return v;
    }
    case intrinsics::Id::Cos:
    case intrinsics::Id::Sin: {
      const Value idx = evalExpr(*c.args[0], f);
      return Value::fromInt(c.type, cosRomEntry(static_cast<int>(idx.toUnsigned() & 1023),
                                                c.intrinsic == intrinsics::Id::Sin));
    }
    case intrinsics::Id::Lookup: {
      const auto& t = static_cast<const VarRefExpr&>(*c.args[0]);
      const Value idx = evalExpr(*c.args[1], f);
      const auto& init = t.decl->init;
      const uint64_t i = idx.toUnsigned();
      if (i >= init.size()) {
        fail(c.loc, "lookup index %0 out of range for '%1' (%2 entries)", i, t.name, init.size());
      }
      return Value::fromInt(c.type, init[i]);
    }
    case intrinsics::Id::BitSelect: {
      const Value v = evalExpr(*c.args[0], f);
      const int64_t lo = *evalConstant(*c.args[2]);
      return Value(c.type, v.toUnsigned() >> lo);
    }
    case intrinsics::Id::BitConcat: {
      const Value a = evalExpr(*c.args[0], f);
      const Value b = evalExpr(*c.args[1], f);
      return Value(c.type, (a.toUnsigned() << b.width()) | b.toUnsigned());
    }
    case intrinsics::Id::None:
      break;
  }
  throw InterpError{c.loc, fmt("unknown intrinsic '%0'", c.callee)};
}

Value Interpreter::evalExpr(const Expr& e, Frame& f) {
  switch (e.kind) {
    case ExprKind::IntLit:
      return Value::fromInt(e.type, static_cast<const IntLitExpr&>(e).value);
    case ExprKind::VarRef: {
      const auto& v = static_cast<const VarRefExpr&>(e);
      const Slot& slot = slotOf(*v.decl, f);
      if (!slot.set) fail(e.loc, "read of uninitialized '%0'", v.name);
      return slot.value;
    }
    case ExprKind::ArrayRef: {
      const auto& a = static_cast<const ArrayRefExpr&>(e);
      const Slot& slot = slotOf(*a.decl, f);
      if (slot.elems.empty()) fail(e.loc, "array '%0' has no storage", a.name);
      return slot.elems[static_cast<size_t>(flatIndex(*a.decl, a.indices, e.loc, f))];
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      const Value v = evalExpr(*u.operand, f);
      switch (u.op) {
        case UnOp::Neg: return ops::neg(v, e.type);
        case UnOp::BitNot: return ops::bitNot(v, e.type);
        case UnOp::LogicalNot: return Value::ofBool(!v.toBool());
      }
      break;
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      // Short-circuit forms first.
      if (b.op == BinOp::LAnd) {
        if (!evalExpr(*b.lhs, f).toBool()) return Value::ofBool(false);
        return Value::ofBool(evalExpr(*b.rhs, f).toBool());
      }
      if (b.op == BinOp::LOr) {
        if (evalExpr(*b.lhs, f).toBool()) return Value::ofBool(true);
        return Value::ofBool(evalExpr(*b.rhs, f).toBool());
      }
      const Value l = evalExpr(*b.lhs, f);
      const Value r = evalExpr(*b.rhs, f);
      switch (b.op) {
        case BinOp::Add: return ops::add(l, r, e.type);
        case BinOp::Sub: return ops::sub(l, r, e.type);
        case BinOp::Mul: return ops::mul(l, r, e.type);
        case BinOp::Div: return ops::divide(l, r, e.type);
        case BinOp::Rem: return ops::rem(l, r, e.type);
        case BinOp::And: return ops::bitAnd(l, r, e.type);
        case BinOp::Or: return ops::bitOr(l, r, e.type);
        case BinOp::Xor: return ops::bitXor(l, r, e.type);
        case BinOp::Shl: return ops::shl(l, r, e.type);
        case BinOp::Shr: return ops::shr(l, r, e.type);
        case BinOp::Eq: return ops::cmpEq(l, r);
        case BinOp::Ne: return ops::cmpNe(l, r);
        case BinOp::Lt: return ops::cmpLt(l, r);
        case BinOp::Le: return ops::cmpLe(l, r);
        case BinOp::Gt: return ops::cmpGt(l, r);
        case BinOp::Ge: return ops::cmpGe(l, r);
        default: break;
      }
      break;
    }
    case ExprKind::Cast: {
      const auto& c = static_cast<const CastExpr&>(e);
      return evalExpr(*c.operand, f).convertTo(c.type);
    }
    case ExprKind::Call: {
      const auto& c = static_cast<const CallExpr&>(e);
      if (c.intrinsic != intrinsics::Id::None) return evalIntrinsic(c, f);
      throw InterpError{e.loc, fmt("call to '%0' in expression position is not supported (calls are statements)", c.callee)};
    }
  }
  throw InterpError{e.loc, "unhandled expression"};
}

KernelIO runKernel(const ast::Module& m, const std::string& fnName, const KernelIO& io) {
  Interpreter i(m);
  return i.run(fnName, io);
}

} // namespace roccc::interp
