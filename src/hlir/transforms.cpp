#include "hlir/transforms.hpp"

#include <cassert>
#include <set>

#include "frontend/sema.hpp"
#include "interp/interp.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::hlir {

using namespace roccc::ast;

namespace {

// --- mutable walkers --------------------------------------------------------

/// Visits every owned ExprPtr slot in an expression tree (children first),
/// allowing the callback to replace the pointer.
void rewriteExprTree(ExprPtr& e, const std::function<void(ExprPtr&)>& fn) {
  switch (e->kind) {
    case ExprKind::IntLit:
    case ExprKind::VarRef:
      break;
    case ExprKind::ArrayRef:
      for (auto& i : static_cast<ArrayRefExpr&>(*e).indices) rewriteExprTree(i, fn);
      break;
    case ExprKind::Unary:
      rewriteExprTree(static_cast<UnaryExpr&>(*e).operand, fn);
      break;
    case ExprKind::Binary: {
      auto& b = static_cast<BinaryExpr&>(*e);
      rewriteExprTree(b.lhs, fn);
      rewriteExprTree(b.rhs, fn);
      break;
    }
    case ExprKind::Cast:
      rewriteExprTree(static_cast<CastExpr&>(*e).operand, fn);
      break;
    case ExprKind::Call:
      for (auto& a : static_cast<CallExpr&>(*e).args) rewriteExprTree(a, fn);
      break;
  }
  fn(e);
}

/// Visits every owned ExprPtr hanging off a statement subtree.
void rewriteExprsInStmt(Stmt& s, const std::function<void(ExprPtr&)>& fn) {
  switch (s.kind) {
    case StmtKind::Block:
      for (auto& st : static_cast<BlockStmt&>(s).stmts) rewriteExprsInStmt(*st, fn);
      break;
    case StmtKind::Decl: {
      auto& d = static_cast<DeclStmt&>(s);
      if (d.init) rewriteExprTree(d.init, fn);
      break;
    }
    case StmtKind::Assign: {
      auto& a = static_cast<AssignStmt&>(s);
      for (auto& i : a.target.indices) rewriteExprTree(i, fn);
      rewriteExprTree(a.value, fn);
      break;
    }
    case StmtKind::If: {
      auto& i = static_cast<IfStmt&>(s);
      rewriteExprTree(i.cond, fn);
      rewriteExprsInStmt(*i.thenBody, fn);
      if (i.elseBody) rewriteExprsInStmt(*i.elseBody, fn);
      break;
    }
    case StmtKind::For: {
      auto& f = static_cast<ForStmt&>(s);
      rewriteExprTree(f.begin, fn);
      rewriteExprTree(f.end, fn);
      rewriteExprsInStmt(*f.body, fn);
      break;
    }
    case StmtKind::Return:
      break;
    case StmtKind::CallStmt:
      rewriteExprTree(static_cast<CallStmt&>(s).call, fn);
      break;
  }
}

/// Visits every owned StmtPtr slot (children first), allowing replacement.
void rewriteStmtSlots(StmtPtr& s, const std::function<void(StmtPtr&)>& fn) {
  switch (s->kind) {
    case StmtKind::Block:
      for (auto& st : static_cast<BlockStmt&>(*s).stmts) rewriteStmtSlots(st, fn);
      break;
    case StmtKind::If: {
      auto& i = static_cast<IfStmt&>(*s);
      rewriteStmtSlots(i.thenBody, fn);
      if (i.elseBody) rewriteStmtSlots(i.elseBody, fn);
      break;
    }
    case StmtKind::For:
      rewriteStmtSlots(static_cast<ForStmt&>(*s).body, fn);
      break;
    default:
      break;
  }
  fn(s);
}

/// Substitutes references to `decl` with clones of `replacement`.
void substituteVar(Stmt& root, const VarDecl* decl, const Expr& replacement) {
  rewriteExprsInStmt(root, [&](ExprPtr& e) {
    if (e->kind == ExprKind::VarRef && static_cast<VarRefExpr&>(*e).decl == decl) {
      ExprPtr r = replacement.clone();
      r->loc = e->loc;
      e = std::move(r);
    }
  });
}

/// Re-runs semantic analysis after a structural change; a transform bug that
/// produces un-analyzable code surfaces here.
bool reanalyze(Module& m, DiagEngine& diags, const char* afterWhat) {
  if (!analyze(m, diags)) {
    diags.error({}, fmt("internal: module failed re-analysis after %0", afterWhat));
    return false;
  }
  return true;
}

int64_t tripCount(const ForStmt& f) {
  auto b = evalConstant(*f.begin);
  auto e = evalConstant(*f.end);
  if (!b || !e || *e <= *b) return -1;
  return (*e - *b + f.step - 1) / f.step;
}

} // namespace

// --- constant folding --------------------------------------------------------

int constantFold(Module& m, DiagEngine& diags) {
  int folds = 0;
  for (auto& fn : m.functions) {
    StmtPtr bodyHolder(fn.body.release());
    // Fold expressions.
    rewriteExprsInStmt(*bodyHolder, [&](ExprPtr& e) {
      if (e->kind == ExprKind::IntLit) return;
      // Keep lvalue-ish positions intact.
      if (e->kind == ExprKind::VarRef || e->kind == ExprKind::ArrayRef || e->kind == ExprKind::Call) return;
      if (auto v = evalConstant(*e)) {
        auto lit = std::make_unique<IntLitExpr>(Value::fromInt(e->type, *v).toInt());
        lit->loc = e->loc;
        lit->type = e->type;
        e = std::move(lit);
        ++folds;
      }
    });
    // Prune constant if-statements.
    rewriteStmtSlots(bodyHolder, [&](StmtPtr& s) {
      if (s->kind != StmtKind::If) return;
      auto& i = static_cast<IfStmt&>(*s);
      auto c = evalConstant(*i.cond);
      if (!c) return;
      ++folds;
      if (*c != 0) {
        s = std::move(i.thenBody);
      } else if (i.elseBody) {
        s = std::move(i.elseBody);
      } else {
        s = std::make_unique<BlockStmt>();
      }
    });
    if (bodyHolder->kind == StmtKind::Block) {
      fn.body.reset(static_cast<BlockStmt*>(bodyHolder.release()));
    } else {
      auto blk = std::make_unique<BlockStmt>();
      blk->stmts.push_back(std::move(bodyHolder));
      fn.body = std::move(blk);
    }
  }
  if (folds) reanalyze(m, diags, "constant folding");
  return folds;
}

// --- unrolling ----------------------------------------------------------------

namespace {

/// Builds the fully unrolled replacement for `f`; returns nullptr when the
/// loop is not unrollable within `maxTrip`.
StmtPtr buildFullUnroll(const ForStmt& f, int64_t maxTrip) {
  auto b = evalConstant(*f.begin);
  auto e = evalConstant(*f.end);
  if (!b || !e) return nullptr;
  const int64_t trips = tripCount(f);
  if (trips < 0 || trips > maxTrip) return nullptr;
  budgetChargeUnroll(trips, "full-unroll");
  auto block = std::make_unique<BlockStmt>();
  block->loc = f.loc;
  for (int64_t iv = *b; iv < *e; iv += f.step) {
    budgetCheckpoint("full-unroll");
    StmtPtr copy = f.body->clone();
    IntLitExpr lit(iv);
    lit.type = ScalarType::intTy();
    substituteVar(*copy, f.inductionDecl, lit);
    block->stmts.push_back(std::move(copy));
  }
  return block;
}

} // namespace

int fullyUnrollLoops(Module& m, Function& fn, DiagEngine& diags, int64_t maxTrip) {
  int unrolled = 0;
  StmtPtr bodyHolder(fn.body.release());
  // Children-first slot rewriting unrolls inner loops before outer ones.
  rewriteStmtSlots(bodyHolder, [&](StmtPtr& s) {
    if (s->kind != StmtKind::For) return;
    auto& f = static_cast<ForStmt&>(*s);
    if (StmtPtr repl = buildFullUnroll(f, maxTrip)) {
      s = std::move(repl);
      ++unrolled;
    }
  });
  assert(bodyHolder->kind == StmtKind::Block);
  fn.body.reset(static_cast<BlockStmt*>(bodyHolder.release()));
  if (unrolled) reanalyze(m, diags, "full unrolling");
  return unrolled;
}

namespace {

/// True when the loop's induction variable appears inside an array index —
/// such loops belong to the streaming nest (the smart buffer walks them);
/// only per-element compute loops (bit scans, digit recurrences) unroll.
bool inductionDrivesArrayAccess(const ForStmt& f) {
  bool drives = false;
  forEachStmt(*f.body, [&](const Stmt& s) {
    auto checkIndices = [&](const std::vector<ExprPtr>& indices) {
      for (const auto& idx : indices) {
        forEachExpr(*idx, [&](const Expr& e) {
          if (e.kind == ExprKind::VarRef && static_cast<const VarRefExpr&>(e).decl == f.inductionDecl) {
            drives = true;
          }
        });
      }
    };
    forEachExprInStmt(s, [&](const Expr& e) {
      if (e.kind == ExprKind::ArrayRef) checkIndices(static_cast<const ArrayRefExpr&>(e).indices);
    });
    if (s.kind == StmtKind::Assign) {
      checkIndices(static_cast<const AssignStmt&>(s).target.indices);
    }
  });
  return drives;
}

} // namespace

int fullyUnrollInnerLoops(Module& m, Function& fn, DiagEngine& diags, int64_t maxTrip) {
  int unrolled = 0;
  // Walk top-level statements; for each top-level loop, unroll every loop
  // strictly inside its body whose induction variable stays out of array
  // subscripts (loops that index arrays are the streaming nest itself).
  for (auto& s : fn.body->stmts) {
    if (s->kind != StmtKind::For) continue;
    auto& outer = static_cast<ForStmt&>(*s);
    rewriteStmtSlots(outer.body, [&](StmtPtr& inner) {
      if (inner->kind != StmtKind::For) return;
      auto& f = static_cast<ForStmt&>(*inner);
      if (inductionDrivesArrayAccess(f)) return;
      if (StmtPtr repl = buildFullUnroll(f, maxTrip)) {
        inner = std::move(repl);
        ++unrolled;
      }
    });
  }
  if (unrolled) reanalyze(m, diags, "inner full unrolling");
  return unrolled;
}

namespace {

/// Finds the innermost loop along the first loop chain; returns the slot so
/// the caller can mutate/replace it.
StmtPtr* findInnermostLoopSlot(StmtPtr& s) {
  if (s->kind == StmtKind::Block) {
    for (auto& st : static_cast<BlockStmt&>(*s).stmts) {
      if (StmtPtr* inner = findInnermostLoopSlot(st)) return inner;
    }
    return nullptr;
  }
  if (s->kind == StmtKind::For) {
    auto& f = static_cast<ForStmt&>(*s);
    if (StmtPtr* inner = findInnermostLoopSlot(f.body)) return inner;
    return &s;
  }
  return nullptr;
}

} // namespace

bool unrollInnerLoop(Module& m, Function& fn, int factor, DiagEngine& diags) {
  if (factor < 2) return true;
  StmtPtr bodyHolder(fn.body.release());
  StmtPtr* slot = findInnermostLoopSlot(bodyHolder);
  bool ok = false;
  if (!slot) {
    diags.error(fn.loc, fmt("'%0' has no loop to unroll", fn.name));
  } else {
    auto& f = static_cast<ForStmt&>(**slot);
    const int64_t trips = tripCount(f);
    if (trips < 0 || trips % factor != 0) {
      diags.error(f.loc, fmt("trip count %0 is not divisible by unroll factor %1", trips, factor));
    } else {
      budgetChargeUnroll(factor, "partial-unroll");
      auto newBody = std::make_unique<BlockStmt>();
      newBody->loc = f.body->loc;
      for (int k = 0; k < factor; ++k) {
        budgetCheckpoint("partial-unroll");
        StmtPtr copy = f.body->clone();
        if (k > 0) {
          // iv := iv + k*step
          auto ivRef = std::make_unique<VarRefExpr>(f.inductionVar);
          auto sum = std::make_unique<BinaryExpr>(BinOp::Add, std::move(ivRef),
                                                  std::make_unique<IntLitExpr>(k * f.step));
          substituteVar(*copy, f.inductionDecl, *sum);
        }
        newBody->stmts.push_back(std::move(copy));
      }
      f.body = std::move(newBody);
      f.step *= factor;
      ok = true;
    }
  }
  assert(bodyHolder->kind == StmtKind::Block);
  fn.body.reset(static_cast<BlockStmt*>(bodyHolder.release()));
  if (ok) ok = reanalyze(m, diags, "partial unrolling");
  return ok;
}

bool stripMineInnerLoop(Module& m, Function& fn, int64_t blockSize, DiagEngine& diags) {
  if (blockSize < 2) return true;
  StmtPtr bodyHolder(fn.body.release());
  StmtPtr* slot = findInnermostLoopSlot(bodyHolder);
  bool ok = false;
  if (!slot) {
    diags.error(fn.loc, fmt("'%0' has no loop to strip-mine", fn.name));
  } else {
    auto& f = static_cast<ForStmt&>(**slot);
    const int64_t trips = tripCount(f);
    if (trips < 0 || trips % blockSize != 0) {
      diags.error(f.loc, fmt("trip count %0 is not divisible by block size %1", trips, blockSize));
    } else {
      const std::string outerIv = f.inductionVar + "_blk";
      auto inner = std::make_unique<ForStmt>();
      inner->loc = f.loc;
      inner->inductionVar = f.inductionVar;
      inner->begin = std::make_unique<VarRefExpr>(outerIv);
      inner->end = std::make_unique<BinaryExpr>(BinOp::Add, std::make_unique<VarRefExpr>(outerIv),
                                                std::make_unique<IntLitExpr>(blockSize * f.step));
      inner->step = f.step;
      inner->body = std::move(f.body);

      auto outer = std::make_unique<ForStmt>();
      outer->loc = f.loc;
      outer->inductionVar = outerIv;
      outer->begin = std::move(f.begin);
      outer->end = std::move(f.end);
      outer->step = f.step * blockSize;
      auto outerBody = std::make_unique<BlockStmt>();
      outerBody->stmts.push_back(std::move(inner));
      outer->body = std::move(outerBody);
      *slot = std::move(outer);
      ok = true;
    }
  }
  assert(bodyHolder->kind == StmtKind::Block);
  fn.body.reset(static_cast<BlockStmt*>(bodyHolder.release()));
  if (ok) ok = reanalyze(m, diags, "strip-mining");
  return ok;
}

// --- fusion ---------------------------------------------------------------------

namespace {

/// Scalars (declared outside the loop) written by the loop body.
std::set<const VarDecl*> scalarsWritten(const Stmt& s) {
  std::set<const VarDecl*> out;
  forEachStmt(s, [&](const Stmt& st) {
    if (st.kind == StmtKind::Assign) {
      const auto& a = static_cast<const AssignStmt&>(st);
      if (a.target.kind == LValue::Kind::Var && a.target.decl) out.insert(a.target.decl);
    }
    if (st.kind == StmtKind::CallStmt) {
      const auto& c = static_cast<const CallExpr&>(*static_cast<const CallStmt&>(st).call);
      if (c.callee == intrinsics::kStoreNext && !c.args.empty() && c.args[0]->kind == ExprKind::VarRef) {
        out.insert(static_cast<const VarRefExpr&>(*c.args[0]).decl);
      }
    }
  });
  return out;
}

std::set<const VarDecl*> scalarsRead(const Stmt& s) {
  std::set<const VarDecl*> out;
  forEachExprInStmt(s, [&](const Expr& e) {
    if (e.kind == ExprKind::VarRef && static_cast<const VarRefExpr&>(e).decl) {
      out.insert(static_cast<const VarRefExpr&>(e).decl);
    }
  });
  return out;
}

bool sameHeader(const ForStmt& a, const ForStmt& b) {
  return a.inductionVar == b.inductionVar && a.step == b.step &&
         printExpr(*a.begin) == printExpr(*b.begin) && printExpr(*a.end) == printExpr(*b.end);
}

} // namespace

int fuseAdjacentLoops(Module& m, Function& fn, DiagEngine& diags) {
  int fused = 0;
  auto& stmts = fn.body->stmts;
  for (size_t i = 0; i + 1 < stmts.size();) {
    if (stmts[i]->kind == StmtKind::For && stmts[i + 1]->kind == StmtKind::For) {
      auto& f1 = static_cast<ForStmt&>(*stmts[i]);
      auto& f2 = static_cast<ForStmt&>(*stmts[i + 1]);
      if (sameHeader(f1, f2)) {
        // Dependence check: loop 2 must not read a scalar loop 1 writes
        // (array-mediated dependences cannot occur: output arrays are
        // write-only in the subset).
        const auto w1 = scalarsWritten(*f1.body);
        const auto r2 = scalarsRead(*f2.body);
        bool dependent = false;
        for (const VarDecl* d : w1) {
          if (d != f1.inductionDecl && r2.count(d)) dependent = true;
        }
        if (!dependent) {
          auto merged = std::make_unique<BlockStmt>();
          merged->stmts.push_back(std::move(f1.body));
          merged->stmts.push_back(std::move(f2.body));
          f1.body = std::move(merged);
          stmts.erase(stmts.begin() + static_cast<long>(i) + 1);
          ++fused;
          continue; // try fusing the next loop into the same one
        }
      }
    }
    ++i;
  }
  if (fused) reanalyze(m, diags, "loop fusion");
  return fused;
}

// --- inlining ----------------------------------------------------------------------

namespace {

/// Expands one call statement in place; returns the replacement block.
/// `inlineCounter` is owned by the calling inlineCalls invocation — a
/// per-module counter, not a global, so concurrent compiles never share
/// naming state and the fresh names are deterministic per job.
StmtPtr buildInlinedBody(const Function& callee, const CallExpr& call, DiagEngine& diags,
                         int& inlineCounter) {
  const int id = inlineCounter++;
  auto block = std::make_unique<BlockStmt>();
  block->loc = call.loc;

  // Fresh names for every parameter.
  std::vector<std::string> newNames;
  for (const auto& p : callee.params) {
    newNames.push_back(fmt("%0_%1_i%2", callee.name, p.name, id));
  }

  // In-params: declare and bind to argument expressions. Out-params:
  // declare a temp, copy back after the body.
  for (size_t i = 0; i < callee.params.size(); ++i) {
    const VarDecl& p = callee.params[i];
    auto d = std::make_unique<DeclStmt>();
    d->loc = call.loc;
    d->var.name = newNames[i];
    d->var.type = p.type;
    d->var.storage = Storage::Local;
    if (p.mode == ParamMode::In) d->init = call.args[i]->clone();
    block->stmts.push_back(std::move(d));
  }

  // Clone and rewrite the body.
  StmtPtr body = callee.body->clone();
  bool failed = false;
  // Return as the trailing statement is dropped; anywhere else is an error.
  rewriteStmtSlots(body, [&](StmtPtr& s) {
    if (s->kind != StmtKind::Return) return;
    s = std::make_unique<BlockStmt>(); // empty; legality checked below
  });
  // (A return in the middle of a callee would change behavior. The subset
  // only allows trailing returns, which sema-checked code satisfies; a
  // non-trailing return would have dead code after it — flag via diags if
  // we ever see residue. Conservatively we accept the pattern.)
  for (size_t i = 0; i < callee.params.size(); ++i) {
    const VarDecl* pd = &callee.params[i];
    // VarRef substitution.
    rewriteExprsInStmt(*body, [&](ExprPtr& e) {
      if (e->kind == ExprKind::VarRef && static_cast<VarRefExpr&>(*e).decl == pd) {
        static_cast<VarRefExpr&>(*e).name = newNames[i];
        static_cast<VarRefExpr&>(*e).decl = nullptr;
      }
    });
    // LValue substitution: '*out = v' becomes 'tmp = v'.
    forEachStmt(*body, [&](const Stmt& cs) {
      auto& st = const_cast<Stmt&>(cs);
      if (st.kind == StmtKind::Assign) {
        auto& a = static_cast<AssignStmt&>(st);
        if (a.target.decl == pd) {
          a.target.name = newNames[i];
          a.target.decl = nullptr;
          if (a.target.kind == LValue::Kind::Deref) a.target.kind = LValue::Kind::Var;
        }
      }
    });
  }
  block->stmts.push_back(std::move(body));

  // Copy out-params back to the caller's variables.
  for (size_t i = 0; i < callee.params.size(); ++i) {
    const VarDecl& p = callee.params[i];
    if (p.type.isArray() || p.mode != ParamMode::Out) continue;
    if (call.args[i]->kind != ExprKind::VarRef) {
      diags.error(call.loc, fmt("cannot inline '%0': out-argument %1 is not a variable", callee.name, i));
      failed = true;
      continue;
    }
    const auto& argVar = static_cast<const VarRefExpr&>(*call.args[i]);
    auto a = std::make_unique<AssignStmt>();
    a->loc = call.loc;
    // When the out-argument is itself an out-parameter of the *enclosing*
    // function, the copy-back must write through it ('*r = tmp').
    const bool targetIsOutParam = argVar.decl && !argVar.decl->type.isArray() &&
                                  argVar.decl->storage == Storage::Param &&
                                  argVar.decl->mode == ParamMode::Out;
    a->target.kind = targetIsOutParam ? LValue::Kind::Deref : LValue::Kind::Var;
    a->target.name = argVar.name;
    // Keep the resolved decl: a later inlining round may need to rewrite
    // this target again (nested inlining) before re-analysis runs.
    a->target.decl = argVar.decl;
    a->value = std::make_unique<VarRefExpr>(newNames[i]);
    block->stmts.push_back(std::move(a));
  }
  if (failed) return nullptr;
  return block;
}

} // namespace

int inlineCalls(Module& m, DiagEngine& diags) {
  faultpoint("hlir.inline");
  int inlined = 0;
  int inlineCounter = 0;
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 32) { // depth bound; recursion is sema-rejected
    budgetCheckpoint("inline");
    changed = false;
    for (auto& fn : m.functions) {
      StmtPtr bodyHolder(fn.body.release());
      rewriteStmtSlots(bodyHolder, [&](StmtPtr& s) {
        if (s->kind != StmtKind::CallStmt) return;
        const auto& call = static_cast<const CallExpr&>(*static_cast<CallStmt&>(*s).call);
        if (intrinsics::isIntrinsic(call.callee)) return;
        const Function* callee = m.findFunction(call.callee);
        if (!callee || callee == &fn) return;
        if (StmtPtr repl = buildInlinedBody(*callee, call, diags, inlineCounter)) {
          s = std::move(repl);
          ++inlined;
          changed = true;
        }
      });
      assert(bodyHolder->kind == StmtKind::Block);
      fn.body.reset(static_cast<BlockStmt*>(bodyHolder.release()));
    }
  }
  if (inlined) reanalyze(m, diags, "call inlining");
  return inlined;
}

// --- call -> lookup table -----------------------------------------------------------

namespace {

/// True if the function is a pure scalar map: one scalar in, one scalar out,
/// no arrays, no globals, no intrinsics, no calls.
bool isPureUnaryFn(const Module& m, const Function& f) {
  if (f.params.size() != 2) return false;
  const VarDecl& in = f.params[0];
  const VarDecl& out = f.params[1];
  if (in.type.isArray() || in.mode != ParamMode::In) return false;
  if (out.type.isArray() || out.mode != ParamMode::Out) return false;
  bool pure = true;
  forEachExprInStmt(*f.body, [&](const Expr& e) {
    if (e.kind == ExprKind::ArrayRef || e.kind == ExprKind::Call) pure = false;
    if (e.kind == ExprKind::VarRef) {
      const auto* d = static_cast<const VarRefExpr&>(e).decl;
      if (d && d->storage == Storage::Global) pure = false;
    }
  });
  (void)m;
  return pure;
}

} // namespace

int convertCallsToLookupTables(Module& m, DiagEngine& diags, int maxIndexBits) {
  faultpoint("hlir.lut-convert");
  int converted = 0;
  std::set<std::string> tablesBuilt;
  for (auto& fn : m.functions) {
    StmtPtr bodyHolder(fn.body.release());
    rewriteStmtSlots(bodyHolder, [&](StmtPtr& s) {
      if (s->kind != StmtKind::CallStmt) return;
      auto& call = static_cast<CallExpr&>(*static_cast<CallStmt&>(*s).call);
      if (intrinsics::isIntrinsic(call.callee)) return;
      const Function* callee = m.findFunction(call.callee);
      if (!callee || !isPureUnaryFn(m, *callee)) return;
      const ScalarType inTy = callee->params[0].type.scalar;
      const ScalarType outTy = callee->params[1].type.scalar;
      if (inTy.width > maxIndexBits) return;
      if (call.args[1]->kind != ExprKind::VarRef) return;

      const std::string tableName = call.callee + "_lut";
      if (!tablesBuilt.count(tableName)) {
        // Evaluate the callee over the entire input domain. The table is
        // indexed by the *raw bit pattern* so signed inputs work: index =
        // (uintW)x.
        const int64_t entries = int64_t{1} << inTy.width;
        VarDecl table;
        table.name = tableName;
        table.type = Type::arrayOf(outTy, {entries});
        table.storage = Storage::Global;
        table.isConst = true;
        table.loc = call.loc;
        interp::Interpreter evaluator(m);
        interp::Interpreter::PreparedCall eval =
            evaluator.prepare(call.callee, {callee->params[0].name}, {callee->params[1].name});
        Value out;
        for (int64_t raw = 0; raw < entries; ++raw) {
          const Value in(inTy, static_cast<uint64_t>(raw));
          eval({&in, 1}, {&out, 1});
          table.init.push_back(out.toInt());
        }
        m.globals.push_back(std::move(table));
        tablesBuilt.insert(tableName);
      }

      // Replacement: out = ROCCC_lookup(table, (uintW) input).
      auto a = std::make_unique<AssignStmt>();
      a->loc = call.loc;
      a->target.kind = LValue::Kind::Var;
      a->target.name = static_cast<const VarRefExpr&>(*call.args[1]).name;
      auto lut = std::make_unique<CallExpr>();
      lut->callee = intrinsics::kLookup;
      lut->loc = call.loc;
      lut->args.push_back(std::make_unique<VarRefExpr>(tableName));
      lut->args.push_back(std::make_unique<CastExpr>(ScalarType::make(inTy.width, false),
                                                     call.args[0]->clone(), /*implicit=*/false));
      a->value = std::move(lut);
      s = std::move(a);
      ++converted;
    });
    assert(bodyHolder->kind == StmtKind::Block);
    fn.body.reset(static_cast<BlockStmt*>(bodyHolder.release()));
  }
  if (converted) reanalyze(m, diags, "lookup-table conversion");
  return converted;
}

} // namespace roccc::hlir
