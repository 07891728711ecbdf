#include "frontend/parser.hpp"

#include <cassert>

#include "frontend/lexer.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::ast {

std::optional<ScalarType> parseTypeName(const std::string& name) {
  auto widthFrom = [](const std::string& s, size_t prefixLen) -> std::optional<int> {
    if (s.size() <= prefixLen) return std::nullopt;
    int w = 0;
    for (size_t i = prefixLen; i < s.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(s[i]))) return std::nullopt;
      w = w * 10 + (s[i] - '0');
      if (w > 64) return std::nullopt;
    }
    return w >= 1 ? std::optional<int>(w) : std::nullopt;
  };
  if (startsWith(name, "uint")) {
    if (auto w = widthFrom(name, 4)) return ScalarType::make(*w, false);
    return std::nullopt;
  }
  if (startsWith(name, "int")) {
    if (auto w = widthFrom(name, 3)) return ScalarType::make(*w, true);
    return std::nullopt;
  }
  return std::nullopt;
}

namespace {

class Parser {
 public:
  Parser(std::vector<Token> toks, DiagEngine& diags) : toks_(std::move(toks)), diags_(diags) {}

  Module parseModule() {
    Module m;
    while (!at(TokKind::End)) {
      const size_t before = pos_;
      if (at(TokKind::KwVoid)) {
        m.functions.push_back(parseFunction());
      } else {
        parseGlobal(m);
      }
      if (pos_ == before) {
        // No progress: swallow one token to avoid an infinite loop.
        error(cur().loc, fmt("unexpected %0 at top level", tokKindName(cur().kind)));
        advance();
      }
      if (diags_.errorCount() > 50) break;
    }
    return m;
  }

 private:
  std::vector<Token> toks_;
  DiagEngine& diags_;
  size_t pos_ = 0;
  int depth_ = 0;

  // Recursion-depth governor: parseBinary/parseUnary/parseStmt recurse on
  // input shape, so a 10k-deep expression would otherwise overflow the stack
  // before any diagnostic fires. The budget's maxDepth cap turns that into a
  // contained ResourceExceeded.
  struct DepthGuard {
    explicit DepthGuard(Parser& p) : p_(p) {
      budgetCheckDepth(++p_.depth_, "parse");
    }
    ~DepthGuard() { --p_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& p_;
  };

  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(size_t ahead = 1) const {
    const size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool at(TokKind k) const { return cur().kind == k; }
  void advance() {
    if (pos_ + 1 < toks_.size()) ++pos_;
  }
  bool accept(TokKind k) {
    if (at(k)) {
      advance();
      return true;
    }
    return false;
  }
  void expect(TokKind k, const char* context) {
    if (!accept(k)) {
      error(cur().loc, fmt("expected %0 %1, found %2", tokKindName(k), context, tokKindName(cur().kind)));
    }
  }
  void error(SourceLoc loc, std::string msg) { diags_.error(loc, std::move(msg)); }

  /// Skips forward to just after the next semicolon / closing brace, for
  /// error recovery.
  void synchronize() {
    while (!at(TokKind::End)) {
      if (accept(TokKind::Semicolon)) return;
      if (at(TokKind::RBrace)) return;
      advance();
    }
  }

  // --- types ------------------------------------------------------------

  bool atTypeStart() const {
    switch (cur().kind) {
      case TokKind::KwInt:
      case TokKind::KwUnsigned:
      case TokKind::KwSigned:
      case TokKind::KwChar:
      case TokKind::KwShort:
      case TokKind::KwLong:
        return true;
      case TokKind::Identifier:
        return parseTypeName(cur().text).has_value();
      default:
        return false;
    }
  }

  /// Parses a scalar type spelling. Standard C spellings map onto the
  /// promotion widths: char=8, short=16, int/long=32.
  ScalarType parseScalarType() {
    bool sawUnsigned = false;
    bool sawSigned = false;
    if (accept(TokKind::KwUnsigned))
      sawUnsigned = true;
    else if (accept(TokKind::KwSigned))
      sawSigned = true;
    (void)sawSigned;
    if (accept(TokKind::KwChar)) return ScalarType::make(8, !sawUnsigned);
    if (accept(TokKind::KwShort)) {
      accept(TokKind::KwInt);
      return ScalarType::make(16, !sawUnsigned);
    }
    if (accept(TokKind::KwLong)) {
      accept(TokKind::KwInt);
      return ScalarType::make(32, !sawUnsigned);
    }
    if (accept(TokKind::KwInt)) return ScalarType::make(32, !sawUnsigned);
    if (at(TokKind::Identifier)) {
      if (auto t = parseTypeName(cur().text)) {
        if (sawUnsigned || sawSigned) error(cur().loc, "cannot combine signed/unsigned with sized type alias");
        advance();
        return *t;
      }
    }
    if (sawUnsigned) return ScalarType::uintTy(); // bare 'unsigned'
    error(cur().loc, fmt("expected type name, found %0", tokKindName(cur().kind)));
    return ScalarType::intTy();
  }

  // --- expressions --------------------------------------------------------

  int binOpPrecedence(TokKind k) const {
    switch (k) {
      case TokKind::Star:
      case TokKind::Slash:
      case TokKind::Percent: return 10;
      case TokKind::Plus:
      case TokKind::Minus: return 9;
      case TokKind::Shl:
      case TokKind::Shr: return 8;
      case TokKind::Lt:
      case TokKind::Le:
      case TokKind::Gt:
      case TokKind::Ge: return 7;
      case TokKind::EqEq:
      case TokKind::NotEq: return 6;
      case TokKind::Amp: return 5;
      case TokKind::Caret: return 4;
      case TokKind::Pipe: return 3;
      case TokKind::AmpAmp: return 2;
      case TokKind::PipePipe: return 1;
      default: return -1;
    }
  }

  BinOp tokToBinOp(TokKind k) const {
    switch (k) {
      case TokKind::Star: return BinOp::Mul;
      case TokKind::Slash: return BinOp::Div;
      case TokKind::Percent: return BinOp::Rem;
      case TokKind::Plus: return BinOp::Add;
      case TokKind::Minus: return BinOp::Sub;
      case TokKind::Shl: return BinOp::Shl;
      case TokKind::Shr: return BinOp::Shr;
      case TokKind::Lt: return BinOp::Lt;
      case TokKind::Le: return BinOp::Le;
      case TokKind::Gt: return BinOp::Gt;
      case TokKind::Ge: return BinOp::Ge;
      case TokKind::EqEq: return BinOp::Eq;
      case TokKind::NotEq: return BinOp::Ne;
      case TokKind::Amp: return BinOp::And;
      case TokKind::Caret: return BinOp::Xor;
      case TokKind::Pipe: return BinOp::Or;
      case TokKind::AmpAmp: return BinOp::LAnd;
      case TokKind::PipePipe: return BinOp::LOr;
      default:
        throw InternalCompilerError(fmt("parser: token %0 has a binary precedence but no BinOp",
                                        tokKindName(k)));
    }
  }

  ExprPtr parseExpr() { return parseBinary(0); }

  ExprPtr parseBinary(int minPrec) {
    const DepthGuard guard(*this);
    ExprPtr lhs = parseUnary();
    for (;;) {
      const int prec = binOpPrecedence(cur().kind);
      if (prec < 0 || prec < minPrec) return lhs;
      const BinOp op = tokToBinOp(cur().kind);
      const SourceLoc loc = cur().loc;
      advance();
      ExprPtr rhs = parseBinary(prec + 1);
      auto b = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
      b->loc = loc;
      lhs = std::move(b);
    }
  }

  ExprPtr parseUnary() {
    const DepthGuard guard(*this);
    const SourceLoc loc = cur().loc;
    if (accept(TokKind::Minus)) {
      auto u = std::make_unique<UnaryExpr>(UnOp::Neg, parseUnary());
      u->loc = loc;
      return u;
    }
    if (accept(TokKind::Tilde)) {
      auto u = std::make_unique<UnaryExpr>(UnOp::BitNot, parseUnary());
      u->loc = loc;
      return u;
    }
    if (accept(TokKind::Bang)) {
      auto u = std::make_unique<UnaryExpr>(UnOp::LogicalNot, parseUnary());
      u->loc = loc;
      return u;
    }
    if (accept(TokKind::Plus)) return parseUnary();
    return parsePrimary();
  }

  ExprPtr parsePrimary() {
    const SourceLoc loc = cur().loc;
    if (at(TokKind::IntLiteral)) {
      auto e = std::make_unique<IntLitExpr>(cur().intValue);
      e->loc = loc;
      advance();
      return e;
    }
    if (at(TokKind::LParen)) {
      // Cast '(type) expr' vs parenthesized expression.
      const Token& next = peek(1);
      const bool typeNext =
          next.kind == TokKind::KwInt || next.kind == TokKind::KwUnsigned || next.kind == TokKind::KwSigned ||
          next.kind == TokKind::KwChar || next.kind == TokKind::KwShort || next.kind == TokKind::KwLong ||
          (next.kind == TokKind::Identifier && parseTypeName(next.text).has_value() &&
           (peek(2).kind == TokKind::RParen));
      if (typeNext) {
        advance(); // (
        const ScalarType to = parseScalarType();
        expect(TokKind::RParen, "after cast type");
        auto e = std::make_unique<CastExpr>(to, parseUnary(), /*implicit=*/false);
        e->loc = loc;
        return e;
      }
      advance();
      ExprPtr inner = parseExpr();
      expect(TokKind::RParen, "to close parenthesized expression");
      return inner;
    }
    if (at(TokKind::Identifier)) {
      const std::string name = cur().text;
      advance();
      if (at(TokKind::LParen)) {
        advance();
        auto call = std::make_unique<CallExpr>();
        call->callee = name;
        call->loc = loc;
        if (!at(TokKind::RParen)) {
          do {
            call->args.push_back(parseExpr());
          } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen, "to close call argument list");
        return call;
      }
      if (at(TokKind::LBracket)) {
        auto a = std::make_unique<ArrayRefExpr>();
        a->name = name;
        a->loc = loc;
        while (accept(TokKind::LBracket)) {
          a->indices.push_back(parseExpr());
          expect(TokKind::RBracket, "to close array index");
        }
        return a;
      }
      auto v = std::make_unique<VarRefExpr>(name);
      v->loc = loc;
      return v;
    }
    error(loc, fmt("expected expression, found %0", tokKindName(cur().kind)));
    advance();
    auto e = std::make_unique<IntLitExpr>(0);
    e->loc = loc;
    return e;
  }

  // --- statements ----------------------------------------------------------

  StmtPtr parseStmt() {
    const DepthGuard guard(*this);
    const SourceLoc loc = cur().loc;
    if (at(TokKind::LBrace)) return parseBlock();
    if (at(TokKind::KwReturn)) {
      advance();
      expect(TokKind::Semicolon, "after return");
      auto s = std::make_unique<ReturnStmt>();
      s->loc = loc;
      return s;
    }
    if (at(TokKind::KwIf)) return parseIf();
    if (at(TokKind::KwFor)) return parseFor();
    if (at(TokKind::KwConst) || atTypeStart()) return parseDecl();
    return parseExprStmt();
  }

  StmtPtr parseBlock() {
    auto block = std::make_unique<BlockStmt>();
    block->loc = cur().loc;
    expect(TokKind::LBrace, "to open block");
    while (!at(TokKind::RBrace) && !at(TokKind::End)) {
      const size_t before = pos_;
      block->stmts.push_back(parseStmt());
      if (pos_ == before) {
        advance(); // guarantee progress under errors
      }
    }
    expect(TokKind::RBrace, "to close block");
    return block;
  }

  StmtPtr parseDecl() {
    auto d = std::make_unique<DeclStmt>();
    d->loc = cur().loc;
    d->var.loc = d->loc;
    d->var.isConst = accept(TokKind::KwConst);
    d->var.type.scalar = parseScalarType();
    d->var.storage = Storage::Local;
    if (!at(TokKind::Identifier)) {
      error(cur().loc, "expected variable name in declaration");
      synchronize();
      return d;
    }
    d->var.name = cur().text;
    advance();
    while (accept(TokKind::LBracket)) {
      ExprPtr dim = parseExpr();
      auto v = evalConstant(*dim);
      if (!v || *v <= 0) {
        error(d->loc, "array dimension must be a positive constant");
        d->var.type.dims.push_back(1);
      } else {
        d->var.type.dims.push_back(*v);
      }
      expect(TokKind::RBracket, "to close array dimension");
    }
    if (accept(TokKind::Assign)) {
      if (at(TokKind::LBrace)) {
        advance();
        do {
          ExprPtr v = parseExpr();
          auto cv = evalConstant(*v);
          if (!cv) error(v->loc, "array initializer element must be constant");
          d->var.init.push_back(cv.value_or(0));
        } while (accept(TokKind::Comma));
        expect(TokKind::RBrace, "to close initializer list");
      } else {
        d->init = parseExpr();
      }
    }
    expect(TokKind::Semicolon, "after declaration");
    return d;
  }

  LValue parseLValue() {
    LValue lv;
    if (accept(TokKind::Star)) lv.kind = LValue::Kind::Deref;
    if (!at(TokKind::Identifier)) {
      error(cur().loc, "expected lvalue");
      return lv;
    }
    lv.name = cur().text;
    advance();
    if (at(TokKind::LBracket)) {
      if (lv.kind == LValue::Kind::Deref) error(cur().loc, "cannot index a dereferenced scalar");
      lv.kind = LValue::Kind::ArrayElem;
      while (accept(TokKind::LBracket)) {
        lv.indices.push_back(parseExpr());
        expect(TokKind::RBracket, "to close array index");
      }
    }
    return lv;
  }

  /// Parses `lhs = expr`, `lhs += expr`, `lhs -= expr`, `x++`, `x--`, or a
  /// bare call. Compound forms are desugared to plain assignments.
  StmtPtr parseExprStmt() {
    const SourceLoc loc = cur().loc;
    // A bare call statement: ident '(' ...
    if (at(TokKind::Identifier) && peek(1).kind == TokKind::LParen) {
      auto s = std::make_unique<CallStmt>();
      s->loc = loc;
      s->call = parsePrimary();
      expect(TokKind::Semicolon, "after call statement");
      return s;
    }
    LValue lv = parseLValue();
    auto makeVarRef = [&]() {
      auto v = std::make_unique<VarRefExpr>(lv.name);
      v->loc = loc;
      return v;
    };
    auto s = std::make_unique<AssignStmt>();
    s->loc = loc;
    if (accept(TokKind::Assign)) {
      s->value = parseExpr();
    } else if (accept(TokKind::PlusAssign)) {
      s->value = std::make_unique<BinaryExpr>(BinOp::Add, makeVarRef(), parseExpr());
    } else if (accept(TokKind::MinusAssign)) {
      s->value = std::make_unique<BinaryExpr>(BinOp::Sub, makeVarRef(), parseExpr());
    } else if (accept(TokKind::PlusPlus)) {
      s->value = std::make_unique<BinaryExpr>(BinOp::Add, makeVarRef(), std::make_unique<IntLitExpr>(1));
    } else if (accept(TokKind::MinusMinus)) {
      s->value = std::make_unique<BinaryExpr>(BinOp::Sub, makeVarRef(), std::make_unique<IntLitExpr>(1));
    } else {
      error(cur().loc, fmt("expected assignment operator, found %0", tokKindName(cur().kind)));
      synchronize();
      s->value = std::make_unique<IntLitExpr>(0);
      s->target = std::move(lv);
      return s;
    }
    s->target = std::move(lv);
    expect(TokKind::Semicolon, "after assignment");
    return s;
  }

  StmtPtr parseIf() {
    auto s = std::make_unique<IfStmt>();
    s->loc = cur().loc;
    expect(TokKind::KwIf, "");
    expect(TokKind::LParen, "after 'if'");
    s->cond = parseExpr();
    expect(TokKind::RParen, "after if condition");
    s->thenBody = parseStmt();
    if (accept(TokKind::KwElse)) s->elseBody = parseStmt();
    return s;
  }

  /// Accepts the canonical counted-loop shapes:
  ///   for ([type] i = E0; i < E1; i = i + C)   (also <=, +=, ++)
  StmtPtr parseFor() {
    auto f = std::make_unique<ForStmt>();
    f->loc = cur().loc;
    expect(TokKind::KwFor, "");
    expect(TokKind::LParen, "after 'for'");

    // init (induction variables are int32 in the subset, whatever the type)
    if (atTypeStart()) {
      parseScalarType();
      f->declaresType = true;
    }
    if (!at(TokKind::Identifier)) {
      error(cur().loc, "expected induction variable in for-init");
      synchronize();
      f->begin = std::make_unique<IntLitExpr>(0);
      f->end = std::make_unique<IntLitExpr>(0);
      f->body = std::make_unique<BlockStmt>();
      return f;
    }
    f->inductionVar = cur().text;
    advance();
    expect(TokKind::Assign, "in for-init");
    f->begin = parseExpr();
    expect(TokKind::Semicolon, "after for-init");

    // condition: i < E or i <= E
    bool inclusive = false;
    if (at(TokKind::Identifier) && cur().text == f->inductionVar) {
      advance();
      if (accept(TokKind::Lt)) {
        inclusive = false;
      } else if (accept(TokKind::Le)) {
        inclusive = true;
      } else {
        error(cur().loc, "for condition must be 'i < bound' or 'i <= bound'");
      }
      f->end = parseExpr();
      if (inclusive) {
        f->end = std::make_unique<BinaryExpr>(BinOp::Add, std::move(f->end), std::make_unique<IntLitExpr>(1));
      }
    } else {
      error(cur().loc, "for condition must test the induction variable");
      f->end = std::make_unique<IntLitExpr>(0);
      synchronize();
    }
    expect(TokKind::Semicolon, "after for-condition");

    // step: i = i + C | i += C | i++ | ++i
    f->step = 1;
    if (accept(TokKind::PlusPlus)) {
      if (at(TokKind::Identifier) && cur().text == f->inductionVar) advance();
    } else if (at(TokKind::Identifier) && cur().text == f->inductionVar) {
      advance();
      if (accept(TokKind::PlusPlus)) {
        f->step = 1;
      } else if (accept(TokKind::PlusAssign)) {
        ExprPtr stepE = parseExpr();
        auto v = evalConstant(*stepE);
        if (!v || *v <= 0)
          error(f->loc, "for step must be a positive constant");
        else
          f->step = *v;
      } else if (accept(TokKind::Assign)) {
        // i = i + C
        ExprPtr e = parseExpr();
        bool ok = false;
        if (e->kind == ExprKind::Binary) {
          auto& b = static_cast<BinaryExpr&>(*e);
          if (b.op == BinOp::Add && b.lhs->kind == ExprKind::VarRef &&
              static_cast<VarRefExpr&>(*b.lhs).name == f->inductionVar) {
            if (auto v = evalConstant(*b.rhs); v && *v > 0) {
              f->step = *v;
              ok = true;
            }
          }
        }
        if (!ok) error(f->loc, "for step must be 'i = i + <positive constant>'");
      } else {
        error(cur().loc, "unsupported for-step form");
      }
    } else {
      error(cur().loc, "for step must update the induction variable");
    }
    expect(TokKind::RParen, "after for header");
    f->body = parseStmt();
    return f;
  }

  // --- top level -------------------------------------------------------------

  void parseGlobal(Module& m) {
    VarDecl g;
    g.loc = cur().loc;
    g.storage = Storage::Global;
    g.isConst = accept(TokKind::KwConst);
    if (!atTypeStart()) {
      error(cur().loc, "expected type in global declaration");
      synchronize();
      return;
    }
    g.type.scalar = parseScalarType();
    if (!at(TokKind::Identifier)) {
      error(cur().loc, "expected global name");
      synchronize();
      return;
    }
    g.name = cur().text;
    advance();
    while (accept(TokKind::LBracket)) {
      ExprPtr dim = parseExpr();
      auto v = evalConstant(*dim);
      if (!v || *v <= 0) {
        error(g.loc, "array dimension must be a positive constant");
        g.type.dims.push_back(1);
      } else {
        g.type.dims.push_back(*v);
      }
      expect(TokKind::RBracket, "to close array dimension");
    }
    if (accept(TokKind::Assign)) {
      if (accept(TokKind::LBrace)) {
        do {
          ExprPtr v = parseExpr();
          auto cv = evalConstant(*v);
          if (!cv) error(v->loc, "global initializer element must be constant");
          g.init.push_back(cv.value_or(0));
        } while (accept(TokKind::Comma));
        expect(TokKind::RBrace, "to close initializer list");
      } else {
        ExprPtr v = parseExpr();
        auto cv = evalConstant(*v);
        if (!cv) error(v->loc, "global initializer must be constant");
        g.init.push_back(cv.value_or(0));
      }
    }
    expect(TokKind::Semicolon, "after global declaration");
    m.globals.push_back(std::move(g));
  }

  Function parseFunction() {
    Function f;
    f.loc = cur().loc;
    expect(TokKind::KwVoid, "at function start");
    if (!at(TokKind::Identifier)) {
      error(cur().loc, "expected function name");
      synchronize();
      return f;
    }
    f.name = cur().text;
    advance();
    expect(TokKind::LParen, "after function name");
    if (!at(TokKind::RParen)) {
      do {
        VarDecl p;
        p.loc = cur().loc;
        p.storage = Storage::Param;
        p.isConst = accept(TokKind::KwConst);
        p.type.scalar = parseScalarType();
        if (accept(TokKind::Star)) p.mode = ParamMode::Out;
        if (!at(TokKind::Identifier)) {
          error(cur().loc, "expected parameter name");
          break;
        }
        p.name = cur().text;
        advance();
        while (accept(TokKind::LBracket)) {
          if (at(TokKind::RBracket)) {
            error(cur().loc, "array parameters must have constant dimensions in the ROCCC subset");
            p.type.dims.push_back(1);
          } else {
            ExprPtr dim = parseExpr();
            auto v = evalConstant(*dim);
            if (!v || *v <= 0) {
              error(p.loc, "array dimension must be a positive constant");
              p.type.dims.push_back(1);
            } else {
              p.type.dims.push_back(*v);
            }
          }
          expect(TokKind::RBracket, "to close array dimension");
        }
        // Array parameters: 'const' marks them input streams; non-const are
        // output streams (mode tracks that).
        if (p.type.isArray()) p.mode = p.isConst ? ParamMode::In : ParamMode::Out;
        f.params.push_back(std::move(p));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "after parameter list");
    StmtPtr body = parseBlock();
    f.body.reset(static_cast<BlockStmt*>(body.release()));
    return f;
  }
};

} // namespace

Module parse(const std::string& source, DiagEngine& diags) {
  faultpoint("frontend.parse");
  std::vector<Token> toks = lex(source, diags);
  Parser p(std::move(toks), diags);
  return p.parseModule();
}

} // namespace roccc::ast
