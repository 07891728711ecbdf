#include "frontend/sema.hpp"

#include <map>
#include <set>

#include "support/strings.hpp"

namespace roccc::ast {

namespace {

/// C usual arithmetic conversions restricted to the subset: every operand
/// narrower than 32 bits promotes to int32; a 32-bit unsigned operand makes
/// the operation unsigned.
ScalarType promote(ScalarType t) {
  if (t.width < 32) return ScalarType::intTy();
  return t;
}

ScalarType commonType(ScalarType a, ScalarType b) {
  const ScalarType pa = promote(a), pb = promote(b);
  if (!pa.isSigned || !pb.isSigned) return ScalarType::uintTy();
  return ScalarType::intTy();
}

class Scope {
 public:
  explicit Scope(Scope* parent = nullptr) : parent_(parent) {}

  const VarDecl* lookup(const std::string& name) const {
    const auto it = vars_.find(name);
    if (it != vars_.end()) return it->second;
    return parent_ ? parent_->lookup(name) : nullptr;
  }

  bool declare(const VarDecl* d) { return vars_.emplace(d->name, d).second; }

 private:
  Scope* parent_;
  std::map<std::string, const VarDecl*> vars_;
};

class Sema {
 public:
  Sema(Module& m, DiagEngine& diags) : m_(m), diags_(diags) {}

  bool run() {
    Scope globalScope;
    for (size_t i = 0; i < m_.globals.size(); ++i) {
      VarDecl& g = m_.globals[i];
      g.slot = static_cast<int>(i);
      if (!globalScope.declare(&g)) diags_.error(g.loc, fmt("redefinition of global '%0'", g.name));
      checkDeclaredType(g);
      if (g.type.isArray() && !g.init.empty() &&
          static_cast<int64_t>(g.init.size()) != g.type.elementCount()) {
        diags_.error(g.loc, fmt("array '%0' has %1 elements but %2 initializers", g.name,
                                g.type.elementCount(), g.init.size()));
      }
    }
    std::set<std::string> fnNames;
    for (const auto& f : m_.functions) {
      if (!fnNames.insert(f.name).second) diags_.error(f.loc, fmt("redefinition of function '%0'", f.name));
    }
    for (auto& f : m_.functions) analyzeFunction(f, globalScope);
    checkNoRecursion();
    return !diags_.hasErrors();
  }

 private:
  Module& m_;
  DiagEngine& diags_;
  Function* currentFn_ = nullptr;
  /// Next frame slot of the current function.
  int nextSlot_ = 0;
  /// Out-params assigned in the current function (each must be written).
  std::set<std::string> writtenOutParams_;
  /// Variables that an untyped for-init named, with the loop's line. The
  /// loop counts in its own induction variable, so the named variable
  /// keeps its value from before the loop where C leaves the exit value.
  /// Reading it is an error until a plain assignment gives it a value.
  std::map<const VarDecl*, int> loopExitValueLost_;
  /// name -> callees, for the recursion check.
  std::map<std::string, std::set<std::string>> callGraph_;

  void checkDeclaredType(const VarDecl& d) {
    if (d.type.scalar.width > 32) {
      diags_.error(d.loc, fmt("'%0': ROCCC supports integer types up to 32 bits, got %1", d.name,
                              d.type.scalar.width));
    }
  }

  void analyzeFunction(Function& f, Scope& globalScope) {
    currentFn_ = &f;
    writtenOutParams_.clear();
    loopExitValueLost_.clear();
    nextSlot_ = 0;
    Scope fnScope(&globalScope);
    for (auto& p : f.params) {
      p.slot = nextSlot_++;
      checkDeclaredType(p);
      if (!fnScope.declare(&p)) diags_.error(p.loc, fmt("duplicate parameter '%0'", p.name));
    }
    analyzeBlock(*f.body, fnScope);
    f.frameSlots = nextSlot_;
    for (const auto& p : f.params) {
      if (!p.type.isArray() && p.mode == ParamMode::Out && !writtenOutParams_.count(p.name)) {
        diags_.warning(p.loc, fmt("out-parameter '%0' of '%1' is never written", p.name, f.name));
      }
    }
    currentFn_ = nullptr;
  }

  void analyzeBlock(BlockStmt& b, Scope& enclosing) {
    Scope scope(&enclosing);
    for (auto& s : b.stmts) analyzeStmt(*s, scope);
  }

  void analyzeStmt(Stmt& s, Scope& scope) {
    switch (s.kind) {
      case StmtKind::Block:
        analyzeBlock(static_cast<BlockStmt&>(s), scope);
        break;
      case StmtKind::Decl: {
        auto& d = static_cast<DeclStmt&>(s);
        d.var.slot = nextSlot_++;
        checkDeclaredType(d.var);
        if (d.init) {
          analyzeExpr(*d.init, scope);
          d.init = coerce(std::move(d.init), d.var.type.scalar);
        }
        if (!scope.declare(&d.var)) diags_.error(d.loc, fmt("redefinition of '%0'", d.var.name));
        break;
      }
      case StmtKind::Assign: {
        auto& a = static_cast<AssignStmt&>(s);
        const ScalarType targetTy = analyzeLValue(a.target, scope, a.loc);
        analyzeExpr(*a.value, scope);
        a.value = coerce(std::move(a.value), targetTy);
        if (a.target.kind == LValue::Kind::Var) loopExitValueLost_.erase(a.target.decl);
        break;
      }
      case StmtKind::If: {
        auto& i = static_cast<IfStmt&>(s);
        analyzeExpr(*i.cond, scope);
        analyzeStmt(*i.thenBody, scope);
        if (i.elseBody) analyzeStmt(*i.elseBody, scope);
        break;
      }
      case StmtKind::For: {
        auto& f = static_cast<ForStmt&>(s);
        analyzeExpr(*f.begin, scope);
        analyzeExpr(*f.end, scope);
        // The induction variable is declared implicitly for the loop body
        // as int32, mirroring 'int i'. It lives in a DeclStmt-less VarDecl
        // owned by the ForStmt via a side table in the module; for
        // simplicity we synthesize a static pool per function.
        loopVars_.push_back(std::make_unique<VarDecl>());
        VarDecl* iv = loopVars_.back().get();
        iv->name = f.inductionVar;
        iv->type = Type::scalarOf(ScalarType::intTy());
        iv->storage = Storage::Local;
        iv->loc = f.loc;
        iv->slot = nextSlot_++;
        f.inductionDecl = iv;
        Scope bodyScope(&scope);
        bodyScope.declare(iv);
        analyzeStmt(*f.body, bodyScope);
        if (const VarDecl* named = f.declaresType ? nullptr : scope.lookup(f.inductionVar)) {
          loopExitValueLost_[named] = f.loc.line;
        }
        break;
      }
      case StmtKind::Return:
        break;
      case StmtKind::CallStmt: {
        auto& c = static_cast<CallStmt&>(s);
        auto& call = static_cast<CallExpr&>(*c.call);
        call.intrinsic = intrinsics::lookup(call.callee);
        if (call.intrinsic == intrinsics::Id::StoreNext) {
          analyzeStoreNext(call, scope);
        } else {
          analyzeExpr(*c.call, scope);
        }
        break;
      }
    }
  }

  /// ROCCC_store2next(var, value): first arg names the feedback variable
  /// (paper Fig 4); the value is coerced to its type.
  void analyzeStoreNext(CallExpr& call, Scope& scope) {
    if (call.args.size() != 2 || call.args[0]->kind != ExprKind::VarRef) {
      diags_.error(call.loc, "ROCCC_store2next expects (feedback_var, value)");
      return;
    }
    auto& target = static_cast<VarRefExpr&>(*call.args[0]);
    const VarDecl* d = scope.lookup(target.name);
    if (!d) {
      diags_.error(target.loc, fmt("unknown feedback variable '%0'", target.name));
      return;
    }
    target.decl = d;
    target.type = d->type.scalar;
    analyzeExpr(*call.args[1], scope);
    call.args[1] = coerce(std::move(call.args[1]), d->type.scalar);
    call.type = d->type.scalar;
  }

  ScalarType analyzeLValue(LValue& lv, Scope& scope, SourceLoc loc) {
    const VarDecl* d = scope.lookup(lv.name);
    if (!d) {
      diags_.error(loc, fmt("assignment to undeclared variable '%0'", lv.name));
      return ScalarType::intTy();
    }
    lv.decl = d;
    switch (lv.kind) {
      case LValue::Kind::Var:
        if (d->type.isArray()) {
          diags_.error(loc, fmt("cannot assign to array '%0' without an index", lv.name));
        }
        if (d->isConst) diags_.error(loc, fmt("assignment to const '%0'", lv.name));
        if (d->storage == Storage::Param && d->mode == ParamMode::Out && !d->type.isArray()) {
          diags_.error(loc, fmt("out-parameter '%0' must be written through '*%0'", lv.name));
        }
        return d->type.scalar;
      case LValue::Kind::ArrayElem: {
        if (!d->type.isArray()) {
          diags_.error(loc, fmt("'%0' is not an array", lv.name));
          return d->type.scalar;
        }
        if (lv.indices.size() != d->type.dims.size()) {
          diags_.error(loc, fmt("array '%0' has %1 dimensions, %2 indices given", lv.name,
                                d->type.dims.size(), lv.indices.size()));
        }
        if (d->isConst) diags_.error(loc, fmt("assignment to const array '%0'", lv.name));
        for (size_t i = 0; i < lv.indices.size(); ++i) {
          analyzeExpr(*lv.indices[i], scope);
          checkIndexBound(*lv.indices[i], *d, i);
        }
        return d->type.scalar;
      }
      case LValue::Kind::Deref: {
        if (d->storage != Storage::Param || d->mode != ParamMode::Out || d->type.isArray()) {
          diags_.error(loc, fmt("'*%0': only scalar out-parameters may be dereferenced", lv.name));
        }
        writtenOutParams_.insert(lv.name);
        return d->type.scalar;
      }
    }
    return ScalarType::intTy();
  }

  void checkIndexBound(const Expr& idx, const VarDecl& d, size_t dim) {
    if (auto v = evalConstant(idx)) {
      if (*v < 0 || (dim < d.type.dims.size() && *v >= d.type.dims[dim])) {
        diags_.error(idx.loc, fmt("index %0 out of bounds for dimension %1 of '%2' (size %3)", *v,
                                  dim, d.name, dim < d.type.dims.size() ? d.type.dims[dim] : 0));
      }
    }
  }

  void analyzeExpr(Expr& e, Scope& scope) {
    switch (e.kind) {
      case ExprKind::IntLit: {
        auto& l = static_cast<IntLitExpr&>(e);
        // Literals that don't fit int32 get uint32 (subset max width).
        e.type = (l.value > INT32_MAX || l.value < INT32_MIN) ? ScalarType::uintTy() : ScalarType::intTy();
        if (l.value > UINT32_MAX || l.value < INT32_MIN) {
          diags_.error(e.loc, fmt("literal %0 does not fit in 32 bits", l.value));
        }
        break;
      }
      case ExprKind::VarRef: {
        auto& v = static_cast<VarRefExpr&>(e);
        const VarDecl* d = scope.lookup(v.name);
        if (!d) {
          diags_.error(e.loc, fmt("use of undeclared identifier '%0'", v.name));
          break;
        }
        v.decl = d;
        if (const auto lost = loopExitValueLost_.find(d); lost != loopExitValueLost_.end()) {
          diags_.error(e.loc, fmt("'%0' is read after the for loop at line %1 that counts in it; "
                                  "the C subset does not keep a loop's exit value, so assign "
                                  "'%0' before reading it",
                                  v.name, lost->second));
        }
        if (d->type.isArray()) diags_.error(e.loc, fmt("array '%0' used as a scalar value", v.name));
        if (d->storage == Storage::Param && d->mode == ParamMode::Out && !d->type.isArray()) {
          diags_.error(e.loc, fmt("out-parameter '%0' cannot be read (write-only)", v.name));
        }
        v.type = d->type.scalar;
        break;
      }
      case ExprKind::ArrayRef: {
        auto& a = static_cast<ArrayRefExpr&>(e);
        const VarDecl* d = scope.lookup(a.name);
        if (!d) {
          diags_.error(e.loc, fmt("use of undeclared array '%0'", a.name));
          break;
        }
        a.decl = d;
        if (!d->type.isArray()) {
          diags_.error(e.loc, fmt("'%0' is not an array", a.name));
          break;
        }
        if (a.indices.size() != d->type.dims.size()) {
          diags_.error(e.loc, fmt("array '%0' has %1 dimensions, %2 indices given", a.name,
                                  d->type.dims.size(), a.indices.size()));
        }
        if (d->storage == Storage::Param && d->mode == ParamMode::Out) {
          // Reading back an output stream is not synthesizable in the
          // streaming model; flag early.
          diags_.error(e.loc, fmt("output array '%0' cannot be read in the kernel", a.name));
        }
        for (size_t i = 0; i < a.indices.size(); ++i) {
          analyzeExpr(*a.indices[i], scope);
          checkIndexBound(*a.indices[i], *d, i);
        }
        a.type = d->type.scalar;
        break;
      }
      case ExprKind::Unary: {
        auto& u = static_cast<UnaryExpr&>(e);
        analyzeExpr(*u.operand, scope);
        if (u.op == UnOp::LogicalNot) {
          u.type = ScalarType::boolTy();
        } else {
          u.type = promote(u.operand->type);
        }
        break;
      }
      case ExprKind::Binary: {
        auto& b = static_cast<BinaryExpr&>(e);
        analyzeExpr(*b.lhs, scope);
        analyzeExpr(*b.rhs, scope);
        if (isComparison(b.op)) {
          b.type = ScalarType::boolTy();
        } else if (b.op == BinOp::Shl || b.op == BinOp::Shr) {
          // Shifts take the promoted left operand's type.
          b.type = promote(b.lhs->type);
        } else {
          b.type = commonType(b.lhs->type, b.rhs->type);
        }
        break;
      }
      case ExprKind::Cast: {
        auto& c = static_cast<CastExpr&>(e);
        analyzeExpr(*c.operand, scope);
        if (c.type.width > 32) diags_.error(e.loc, "cast target wider than 32 bits");
        break;
      }
      case ExprKind::Call: {
        auto& c = static_cast<CallExpr&>(e);
        analyzeCall(c, scope);
        break;
      }
    }
  }

  void analyzeCall(CallExpr& c, Scope& scope) {
    c.intrinsic = intrinsics::lookup(c.callee);
    if (c.intrinsic != intrinsics::Id::None) {
      analyzeIntrinsic(c, scope);
      return;
    }
    // User function: must exist; used as a statement with out-params, or
    // inlined later. Record the call edge for the recursion check.
    const Function* callee = m_.findFunction(c.callee);
    if (!callee) {
      diags_.error(c.loc, fmt("call to unknown function '%0'", c.callee));
      return;
    }
    if (currentFn_) callGraph_[currentFn_->name].insert(c.callee);
    if (c.args.size() != callee->params.size()) {
      diags_.error(c.loc, fmt("'%0' expects %1 arguments, got %2", c.callee, callee->params.size(),
                              c.args.size()));
      return;
    }
    for (size_t i = 0; i < c.args.size(); ++i) {
      const VarDecl& p = callee->params[i];
      if (!p.type.isArray() && p.mode == ParamMode::Out) {
        // The argument must be an addressable scalar variable.
        if (c.args[i]->kind != ExprKind::VarRef) {
          diags_.error(c.args[i]->loc, fmt("argument %0 of '%1' must be a variable (out-param)", i, c.callee));
          continue;
        }
        auto& v = static_cast<VarRefExpr&>(*c.args[i]);
        const VarDecl* d = scope.lookup(v.name);
        if (!d)
          diags_.error(v.loc, fmt("use of undeclared identifier '%0'", v.name));
        else {
          v.decl = d;
          v.type = d->type.scalar;
        }
      } else {
        analyzeExpr(*c.args[i], scope);
        c.args[i] = coerce(std::move(c.args[i]), p.type.scalar);
      }
    }
    c.type = ScalarType::intTy(); // void in effect; calls only appear as stmts
  }

  void analyzeIntrinsic(CallExpr& c, Scope& scope) {
    using intrinsics::Id;
    const std::string& n = c.callee;
    if (c.intrinsic == Id::LoadPrev) {
      if (c.args.size() != 1 || c.args[0]->kind != ExprKind::VarRef) {
        diags_.error(c.loc, "ROCCC_load_prev expects a single variable argument");
        c.type = ScalarType::intTy();
        return;
      }
      auto& v = static_cast<VarRefExpr&>(*c.args[0]);
      const VarDecl* d = scope.lookup(v.name);
      if (!d) {
        diags_.error(v.loc, fmt("unknown feedback variable '%0'", v.name));
        return;
      }
      v.decl = d;
      v.type = d->type.scalar;
      c.type = d->type.scalar;
      return;
    }
    if (c.intrinsic == Id::StoreNext) {
      analyzeStoreNext(c, scope);
      return;
    }
    if (c.intrinsic == Id::Lookup) {
      if (c.args.size() != 2 || c.args[0]->kind != ExprKind::VarRef) {
        diags_.error(c.loc, "ROCCC_lookup expects (const_table, index)");
        return;
      }
      auto& t = static_cast<VarRefExpr&>(*c.args[0]);
      const VarDecl* d = scope.lookup(t.name);
      if (!d || !d->type.isArray() || !d->isConst || d->init.empty()) {
        diags_.error(t.loc, fmt("'%0' must be a const initialized array to be used as a lookup table", t.name));
        return;
      }
      t.decl = d;
      t.type = d->type.scalar;
      analyzeExpr(*c.args[1], scope);
      c.type = d->type.scalar;
      return;
    }
    for (auto& a : c.args) analyzeExpr(*a, scope);
    if (c.intrinsic == Id::Cos || c.intrinsic == Id::Sin) {
      if (c.args.size() != 1) diags_.error(c.loc, fmt("%0 expects one argument", n));
      // The pre-existing Virtex-II cos/sin lookup table: 10-bit phase in,
      // 16-bit signed out (the Table 1 configuration).
      if (!c.args.empty()) c.args[0] = coerce(std::move(c.args[0]), ScalarType::make(10, false));
      c.type = ScalarType::make(16, true);
      return;
    }
    if (c.intrinsic == Id::BitSelect) {
      // ROCCC_bit_select(x, hi, lo): bits hi..lo as unsigned.
      if (c.args.size() != 3) {
        diags_.error(c.loc, "ROCCC_bit_select expects (value, hi, lo)");
        return;
      }
      auto hi = evalConstant(*c.args[1]);
      auto lo = evalConstant(*c.args[2]);
      if (!hi || !lo || *hi < *lo || *lo < 0 || *hi > 31) {
        diags_.error(c.loc, "ROCCC_bit_select bounds must be constants with 31 >= hi >= lo >= 0");
        return;
      }
      c.type = ScalarType::make(static_cast<int>(*hi - *lo + 1), false);
      return;
    }
    if (c.intrinsic == Id::BitConcat) {
      if (c.args.size() != 2) {
        diags_.error(c.loc, "ROCCC_bit_concat expects (high, low)");
        return;
      }
      const int w = c.args[0]->type.width + c.args[1]->type.width;
      if (w > 32) {
        diags_.error(c.loc, "ROCCC_bit_concat result exceeds 32 bits");
        return;
      }
      c.type = ScalarType::make(w, false);
      return;
    }
  }

  /// Wraps `e` in an implicit cast when its type differs from `to`.
  ExprPtr coerce(ExprPtr e, ScalarType to) {
    if (e->type == to) return e;
    auto c = std::make_unique<CastExpr>(to, std::move(e), /*implicit=*/true);
    c->loc = c->operand->loc;
    return c;
  }

  void checkNoRecursion() {
    // DFS over the call graph looking for a cycle (paper section 2:
    // "no recursion").
    std::set<std::string> visiting, done;
    std::function<bool(const std::string&)> dfs = [&](const std::string& fn) -> bool {
      if (done.count(fn)) return false;
      if (!visiting.insert(fn).second) return true;
      for (const auto& callee : callGraph_[fn]) {
        if (dfs(callee)) {
          return true;
        }
      }
      visiting.erase(fn);
      done.insert(fn);
      return false;
    };
    for (const auto& f : m_.functions) {
      if (dfs(f.name)) {
        diags_.error(f.loc, fmt("recursion detected involving '%0' (not supported on FPGA fabric)", f.name));
        return;
      }
    }
  }

  /// Storage for implicitly declared loop induction variables; handed to
  /// Module::ownedDecls when analysis finishes so the pointers stay valid.
 public:
  std::vector<std::unique_ptr<VarDecl>> loopVars_;
};

} // namespace

bool analyze(Module& m, DiagEngine& diags) {
  Sema s(m, diags);
  const bool ok = s.run();
  for (auto& v : s.loopVars_) m.ownedDecls.push_back(std::move(v));
  return ok;
}

ScalarType intrinsicResultType(const std::string& name, const std::vector<ScalarType>& argTypes) {
  if (name == intrinsics::kCos || name == intrinsics::kSin) return ScalarType::make(16, true);
  if (!argTypes.empty()) return argTypes[0];
  return ScalarType::intTy();
}

} // namespace roccc::ast
