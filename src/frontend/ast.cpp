#include "frontend/ast.hpp"

#include <sstream>
#include <utility>

#include "support/strings.hpp"

namespace roccc::ast {

// ---------------------------------------------------------------------------
// Type
// ---------------------------------------------------------------------------

std::string Type::str() const {
  std::string s = scalar.str();
  for (int64_t d : dims) s += fmt("[%0]", d);
  return s;
}

// ---------------------------------------------------------------------------
// Spellings
// ---------------------------------------------------------------------------

const char* binOpSpelling(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Rem: return "%";
    case BinOp::And: return "&";
    case BinOp::Or: return "|";
    case BinOp::Xor: return "^";
    case BinOp::Shl: return "<<";
    case BinOp::Shr: return ">>";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::LAnd: return "&&";
    case BinOp::LOr: return "||";
  }
  return "?";
}

const char* unOpSpelling(UnOp op) {
  switch (op) {
    case UnOp::Neg: return "-";
    case UnOp::BitNot: return "~";
    case UnOp::LogicalNot: return "!";
  }
  return "?";
}

bool isComparison(BinOp op) {
  switch (op) {
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::LAnd:
    case BinOp::LOr:
      return true;
    default:
      return false;
  }
}

namespace intrinsics {
Id lookup(const std::string& name) {
  static const std::pair<const char*, Id> kNames[] = {
      {kLoadPrev, Id::LoadPrev}, {kStoreNext, Id::StoreNext}, {kCos, Id::Cos},
      {kSin, Id::Sin},           {kLookup, Id::Lookup},       {kBitSelect, Id::BitSelect},
      {kBitConcat, Id::BitConcat},
  };
  for (const auto& [spelling, id] : kNames) {
    if (name == spelling) return id;
  }
  return Id::None;
}

bool isIntrinsic(const std::string& name) { return lookup(name) != Id::None; }
} // namespace intrinsics

// ---------------------------------------------------------------------------
// clone()
// ---------------------------------------------------------------------------

namespace {
template <typename T>
std::unique_ptr<T> cloneAs(const std::unique_ptr<T>& p) {
  if (!p) return nullptr;
  auto c = p->clone();
  auto* raw = static_cast<T*>(c.release());
  return std::unique_ptr<T>(raw);
}
} // namespace

ExprPtr IntLitExpr::clone() const {
  auto e = std::make_unique<IntLitExpr>(value);
  e->loc = loc;
  e->type = type;
  return e;
}

ExprPtr VarRefExpr::clone() const {
  auto e = std::make_unique<VarRefExpr>(name);
  e->decl = decl;
  e->loc = loc;
  e->type = type;
  return e;
}

ExprPtr ArrayRefExpr::clone() const {
  auto e = std::make_unique<ArrayRefExpr>();
  e->name = name;
  e->decl = decl;
  for (const auto& i : indices) e->indices.push_back(i->clone());
  e->loc = loc;
  e->type = type;
  return e;
}

ExprPtr UnaryExpr::clone() const {
  auto e = std::make_unique<UnaryExpr>(op, operand->clone());
  e->loc = loc;
  e->type = type;
  return e;
}

ExprPtr BinaryExpr::clone() const {
  auto e = std::make_unique<BinaryExpr>(op, lhs->clone(), rhs->clone());
  e->loc = loc;
  e->type = type;
  return e;
}

ExprPtr CastExpr::clone() const {
  auto e = std::make_unique<CastExpr>(type, operand->clone(), isImplicit);
  e->loc = loc;
  return e;
}

ExprPtr CallExpr::clone() const {
  auto e = std::make_unique<CallExpr>();
  e->callee = callee;
  e->intrinsic = intrinsic;
  for (const auto& a : args) e->args.push_back(a->clone());
  e->loc = loc;
  e->type = type;
  return e;
}

LValue LValue::clone() const {
  LValue lv;
  lv.kind = kind;
  lv.name = name;
  lv.decl = decl;
  for (const auto& i : indices) lv.indices.push_back(i->clone());
  return lv;
}

StmtPtr BlockStmt::clone() const {
  auto s = std::make_unique<BlockStmt>();
  for (const auto& st : stmts) s->stmts.push_back(st->clone());
  s->loc = loc;
  return s;
}

StmtPtr DeclStmt::clone() const {
  auto s = std::make_unique<DeclStmt>();
  s->var = var;
  s->init = init ? init->clone() : nullptr;
  s->loc = loc;
  return s;
}

StmtPtr AssignStmt::clone() const {
  auto s = std::make_unique<AssignStmt>();
  s->target = target.clone();
  s->value = value->clone();
  s->loc = loc;
  return s;
}

StmtPtr IfStmt::clone() const {
  auto s = std::make_unique<IfStmt>();
  s->cond = cond->clone();
  s->thenBody = thenBody->clone();
  s->elseBody = elseBody ? elseBody->clone() : nullptr;
  s->loc = loc;
  return s;
}

StmtPtr ForStmt::clone() const {
  auto s = std::make_unique<ForStmt>();
  s->inductionVar = inductionVar;
  s->declaresType = declaresType;
  s->inductionDecl = inductionDecl;
  s->begin = begin->clone();
  s->end = end->clone();
  s->step = step;
  s->body = body->clone();
  s->loc = loc;
  return s;
}

StmtPtr ReturnStmt::clone() const {
  auto s = std::make_unique<ReturnStmt>();
  s->loc = loc;
  return s;
}

StmtPtr CallStmt::clone() const {
  auto s = std::make_unique<CallStmt>();
  s->call = call->clone();
  s->loc = loc;
  return s;
}

Function Function::cloneFn() const {
  Function f;
  f.name = name;
  f.params = params;
  if (body) {
    auto b = body->clone();
    f.body.reset(static_cast<BlockStmt*>(b.release()));
  }
  f.loc = loc;
  f.frameSlots = frameSlots;
  return f;
}

const VarDecl* Function::findParam(const std::string& n) const {
  for (const auto& p : params)
    if (p.name == n) return &p;
  return nullptr;
}

Function* Module::findFunction(const std::string& name) {
  for (auto& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

const Function* Module::findFunction(const std::string& name) const {
  for (const auto& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

const VarDecl* Module::findGlobal(const std::string& name) const {
  for (const auto& g : globals)
    if (g.name == name) return &g;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

namespace {

/// C-like rendering of a scalar type: int8/int16/int32 get C names where
/// they exist; everything else uses the intN/uintN aliases the lexer accepts.
std::string cTypeName(ScalarType t) {
  return t.str(); // intN/uintN are valid type names in the subset grammar
}

int precedence(BinOp op) {
  switch (op) {
    case BinOp::Mul:
    case BinOp::Div:
    case BinOp::Rem: return 10;
    case BinOp::Add:
    case BinOp::Sub: return 9;
    case BinOp::Shl:
    case BinOp::Shr: return 8;
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge: return 7;
    case BinOp::Eq:
    case BinOp::Ne: return 6;
    case BinOp::And: return 5;
    case BinOp::Xor: return 4;
    case BinOp::Or: return 3;
    case BinOp::LAnd: return 2;
    case BinOp::LOr: return 1;
  }
  return 0;
}

void printExprInner(const Expr& e, std::ostringstream& os, int parentPrec) {
  switch (e.kind) {
    case ExprKind::IntLit:
      os << static_cast<const IntLitExpr&>(e).value;
      break;
    case ExprKind::VarRef:
      os << static_cast<const VarRefExpr&>(e).name;
      break;
    case ExprKind::ArrayRef: {
      const auto& a = static_cast<const ArrayRefExpr&>(e);
      os << a.name;
      for (const auto& i : a.indices) {
        os << '[';
        printExprInner(*i, os, 0);
        os << ']';
      }
      break;
    }
    case ExprKind::Unary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      os << unOpSpelling(u.op);
      os << '(';
      printExprInner(*u.operand, os, 0);
      os << ')';
      break;
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      const int prec = precedence(b.op);
      const bool paren = prec < parentPrec;
      if (paren) os << '(';
      printExprInner(*b.lhs, os, prec);
      os << ' ' << binOpSpelling(b.op) << ' ';
      printExprInner(*b.rhs, os, prec + 1);
      if (paren) os << ')';
      break;
    }
    case ExprKind::Cast: {
      const auto& c = static_cast<const CastExpr&>(e);
      if (c.isImplicit) {
        printExprInner(*c.operand, os, parentPrec);
      } else {
        os << '(' << cTypeName(c.type) << ")(";
        printExprInner(*c.operand, os, 0);
        os << ')';
      }
      break;
    }
    case ExprKind::Call: {
      const auto& c = static_cast<const CallExpr&>(e);
      os << c.callee << '(';
      for (size_t i = 0; i < c.args.size(); ++i) {
        if (i) os << ", ";
        printExprInner(*c.args[i], os, 0);
      }
      os << ')';
      break;
    }
  }
}

void printStmtInner(const Stmt& s, IndentWriter& w);

void printBlockBody(const Stmt& s, IndentWriter& w) {
  if (s.kind == StmtKind::Block) {
    for (const auto& st : static_cast<const BlockStmt&>(s).stmts) printStmtInner(*st, w);
  } else {
    printStmtInner(s, w);
  }
}

std::string lvalueStr(const LValue& lv) {
  std::ostringstream os;
  if (lv.kind == LValue::Kind::Deref) os << '*';
  os << lv.name;
  for (const auto& i : lv.indices) {
    os << '[';
    printExprInner(*i, os, 0);
    os << ']';
  }
  return os.str();
}

void printStmtInner(const Stmt& s, IndentWriter& w) {
  switch (s.kind) {
    case StmtKind::Block: {
      w.line("{");
      w.indent();
      printBlockBody(s, w);
      w.dedent();
      w.line("}");
      break;
    }
    case StmtKind::Decl: {
      const auto& d = static_cast<const DeclStmt&>(s);
      std::string l = (d.var.isConst ? std::string("const ") : std::string()) + cTypeName(d.var.type.scalar) + " " + d.var.name;
      for (int64_t dim : d.var.type.dims) l += fmt("[%0]", dim);
      if (d.init) l += " = " + printExpr(*d.init);
      w.line(l + ";");
      break;
    }
    case StmtKind::Assign: {
      const auto& a = static_cast<const AssignStmt&>(s);
      w.line(lvalueStr(a.target) + " = " + printExpr(*a.value) + ";");
      break;
    }
    case StmtKind::If: {
      const auto& i = static_cast<const IfStmt&>(s);
      w.line("if (" + printExpr(*i.cond) + ") {");
      w.indent();
      printBlockBody(*i.thenBody, w);
      w.dedent();
      if (i.elseBody) {
        w.line("} else {");
        w.indent();
        printBlockBody(*i.elseBody, w);
        w.dedent();
      }
      w.line("}");
      break;
    }
    case StmtKind::For: {
      const auto& f = static_cast<const ForStmt&>(s);
      w.line(fmt("for (%0 = %1; %0 < %2; %0 = %0 + %3) {", f.inductionVar, printExpr(*f.begin),
                 printExpr(*f.end), f.step));
      w.indent();
      printBlockBody(*f.body, w);
      w.dedent();
      w.line("}");
      break;
    }
    case StmtKind::Return:
      w.line("return;");
      break;
    case StmtKind::CallStmt:
      w.line(printExpr(*static_cast<const CallStmt&>(s).call) + ";");
      break;
  }
}

} // namespace

std::string printExpr(const Expr& e) {
  std::ostringstream os;
  printExprInner(e, os, 0);
  return os.str();
}

std::string printStmt(const Stmt& s, int indentLevel) {
  IndentWriter w;
  for (int i = 0; i < indentLevel; ++i) w.indent();
  printStmtInner(s, w);
  return w.str();
}

std::string printFunction(const Function& f) {
  std::vector<std::string> params;
  for (const auto& p : f.params) {
    std::string s = p.isConst ? "const " : "";
    s += cTypeName(p.type.scalar);
    if (!p.type.isArray() && p.mode == ParamMode::Out) s += "*";
    s += " " + p.name;
    for (int64_t d : p.type.dims) s += fmt("[%0]", d);
    params.push_back(s);
  }
  IndentWriter w;
  w.line("void " + f.name + "(" + join(params, ", ") + ") {");
  w.indent();
  if (f.body) printBlockBody(*f.body, w);
  w.dedent();
  w.line("}");
  return w.str();
}

std::string printModule(const Module& m) {
  std::string out;
  for (const auto& g : m.globals) {
    std::string l = (g.isConst ? std::string("const ") : std::string()) + cTypeName(g.type.scalar) + " " + g.name;
    for (int64_t d : g.type.dims) l += fmt("[%0]", d);
    if (!g.init.empty()) {
      std::vector<std::string> vals;
      for (int64_t v : g.init) vals.push_back(std::to_string(v));
      l += " = {" + join(vals, ", ") + "}";
    }
    out += l + ";\n";
  }
  if (!m.globals.empty()) out += "\n";
  for (size_t i = 0; i < m.functions.size(); ++i) {
    if (i) out += "\n";
    out += printFunction(m.functions[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Walkers
// ---------------------------------------------------------------------------

void forEachExpr(const Expr& e, const std::function<void(const Expr&)>& fn) {
  fn(e);
  switch (e.kind) {
    case ExprKind::IntLit:
    case ExprKind::VarRef:
      break;
    case ExprKind::ArrayRef:
      for (const auto& i : static_cast<const ArrayRefExpr&>(e).indices) forEachExpr(*i, fn);
      break;
    case ExprKind::Unary:
      forEachExpr(*static_cast<const UnaryExpr&>(e).operand, fn);
      break;
    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      forEachExpr(*b.lhs, fn);
      forEachExpr(*b.rhs, fn);
      break;
    }
    case ExprKind::Cast:
      forEachExpr(*static_cast<const CastExpr&>(e).operand, fn);
      break;
    case ExprKind::Call:
      for (const auto& a : static_cast<const CallExpr&>(e).args) forEachExpr(*a, fn);
      break;
  }
}

void forEachStmt(const Stmt& s, const std::function<void(const Stmt&)>& fn) {
  fn(s);
  switch (s.kind) {
    case StmtKind::Block:
      for (const auto& st : static_cast<const BlockStmt&>(s).stmts) forEachStmt(*st, fn);
      break;
    case StmtKind::If: {
      const auto& i = static_cast<const IfStmt&>(s);
      forEachStmt(*i.thenBody, fn);
      if (i.elseBody) forEachStmt(*i.elseBody, fn);
      break;
    }
    case StmtKind::For:
      forEachStmt(*static_cast<const ForStmt&>(s).body, fn);
      break;
    default:
      break;
  }
}

void forEachExprInStmt(const Stmt& s, const std::function<void(const Expr&)>& fn) {
  forEachStmt(s, [&](const Stmt& st) {
    switch (st.kind) {
      case StmtKind::Decl: {
        const auto& d = static_cast<const DeclStmt&>(st);
        if (d.init) forEachExpr(*d.init, fn);
        break;
      }
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(st);
        for (const auto& i : a.target.indices) forEachExpr(*i, fn);
        forEachExpr(*a.value, fn);
        break;
      }
      case StmtKind::If:
        forEachExpr(*static_cast<const IfStmt&>(st).cond, fn);
        break;
      case StmtKind::For: {
        const auto& f = static_cast<const ForStmt&>(st);
        forEachExpr(*f.begin, fn);
        forEachExpr(*f.end, fn);
        break;
      }
      case StmtKind::CallStmt:
        forEachExpr(*static_cast<const CallStmt&>(st).call, fn);
        break;
      default:
        break;
    }
  });
}

std::optional<int64_t> evalConstant(const Expr& e) {
  switch (e.kind) {
    case ExprKind::IntLit:
      return static_cast<const IntLitExpr&>(e).value;
    case ExprKind::Unary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      auto v = evalConstant(*u.operand);
      if (!v) return std::nullopt;
      switch (u.op) {
        case UnOp::Neg: return -*v;
        case UnOp::BitNot: return ~*v;
        case UnOp::LogicalNot: return *v == 0 ? 1 : 0;
      }
      return std::nullopt;
    }
    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      auto l = evalConstant(*b.lhs);
      auto r = evalConstant(*b.rhs);
      if (!l || !r) return std::nullopt;
      switch (b.op) {
        case BinOp::Add: return *l + *r;
        case BinOp::Sub: return *l - *r;
        case BinOp::Mul: return *l * *r;
        case BinOp::Div: return *r == 0 ? std::nullopt : std::optional<int64_t>(*l / *r);
        case BinOp::Rem: return *r == 0 ? std::nullopt : std::optional<int64_t>(*l % *r);
        case BinOp::And: return *l & *r;
        case BinOp::Or: return *l | *r;
        case BinOp::Xor: return *l ^ *r;
        case BinOp::Shl: return (*r < 0 || *r > 62) ? std::nullopt : std::optional<int64_t>(*l << *r);
        case BinOp::Shr: return (*r < 0 || *r > 62) ? std::nullopt : std::optional<int64_t>(*l >> *r);
        case BinOp::Eq: return *l == *r;
        case BinOp::Ne: return *l != *r;
        case BinOp::Lt: return *l < *r;
        case BinOp::Le: return *l <= *r;
        case BinOp::Gt: return *l > *r;
        case BinOp::Ge: return *l >= *r;
        case BinOp::LAnd: return (*l != 0 && *r != 0) ? 1 : 0;
        case BinOp::LOr: return (*l != 0 || *r != 0) ? 1 : 0;
      }
      return std::nullopt;
    }
    case ExprKind::Cast: {
      const auto& c = static_cast<const CastExpr&>(e);
      auto v = evalConstant(*c.operand);
      if (!v) return std::nullopt;
      return Value::fromInt(c.type, *v).toInt();
    }
    default:
      return std::nullopt;
  }
}

} // namespace roccc::ast
