// Abstract syntax tree for the ROCCC C subset.
//
// The subset follows the paper's section 2 restrictions: signed/unsigned
// integers up to 32 bits, for-loops, multi-dimensional array accesses,
// if/else, no recursion, and pointers only as scalar out-parameters.
// Compiler-inserted constructs (ROCCC_load_prev / ROCCC_store2next, Fig 4)
// are expressible directly so transformed code can be printed, re-parsed,
// and diffed in tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/diag.hpp"
#include "support/value.hpp"

namespace roccc::ast {

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

/// A value type: scalar, or a (possibly multi-dimensional) array of scalars
/// with compile-time-constant dimensions.
struct Type {
  ScalarType scalar;
  std::vector<int64_t> dims; ///< empty => scalar

  bool isArray() const { return !dims.empty(); }
  int64_t elementCount() const {
    int64_t n = 1;
    for (int64_t d : dims) n *= d;
    return n;
  }
  std::string str() const;
  friend bool operator==(const Type&, const Type&) = default;

  static Type scalarOf(ScalarType s) { return {s, {}}; }
  static Type arrayOf(ScalarType s, std::vector<int64_t> dims) { return {s, std::move(dims)}; }
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

enum class Storage {
  Global, ///< module-level array or scalar
  Param,  ///< function parameter
  Local,  ///< declared inside a function body
};

/// Direction of a parameter. Scalar outputs are written in the C subset as
/// pointer parameters ("the pointers are only used to indicate multiple
/// return values", Fig 5 footnote).
enum class ParamMode { In, Out };

struct VarDecl {
  std::string name;
  Type type;
  Storage storage = Storage::Local;
  ParamMode mode = ParamMode::In;
  bool isConst = false;
  /// Initializer for const global arrays (lookup tables) — raw values,
  /// row-major; also single-element for initialized scalars.
  std::vector<int64_t> init;
  SourceLoc loc;
  /// Storage index numbered by sema: a global's position in
  /// Module::globals, else the declaration's index in its function's frame
  /// (params first, then locals and loop induction variables). -1 until
  /// analyzed.
  int slot = -1;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  IntLit,
  VarRef,
  ArrayRef,
  Unary,
  Binary,
  Cast,
  Call,
};

enum class BinOp {
  Add, Sub, Mul, Div, Rem,
  And, Or, Xor, Shl, Shr,
  Eq, Ne, Lt, Le, Gt, Ge,
  LAnd, LOr,
};

enum class UnOp { Neg, BitNot, LogicalNot };

const char* binOpSpelling(BinOp op);
const char* unOpSpelling(UnOp op);
/// True for ==, !=, <, <=, >, >=, &&, || (1-bit result).
bool isComparison(BinOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  SourceLoc loc;
  /// Filled in by semantic analysis; scalar only (arrays never appear as
  /// full-expression values).
  ScalarType type = ScalarType::intTy();

  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  virtual ExprPtr clone() const = 0;
};

struct IntLitExpr final : Expr {
  int64_t value = 0;

  IntLitExpr() : Expr(ExprKind::IntLit) {}
  explicit IntLitExpr(int64_t v) : Expr(ExprKind::IntLit), value(v) {}
  ExprPtr clone() const override;
};

struct VarRefExpr final : Expr {
  std::string name;
  const VarDecl* decl = nullptr; ///< resolved by sema

  VarRefExpr() : Expr(ExprKind::VarRef) {}
  explicit VarRefExpr(std::string n) : Expr(ExprKind::VarRef), name(std::move(n)) {}
  ExprPtr clone() const override;
};

struct ArrayRefExpr final : Expr {
  std::string name;
  const VarDecl* decl = nullptr;
  std::vector<ExprPtr> indices;

  ArrayRefExpr() : Expr(ExprKind::ArrayRef) {}
  ExprPtr clone() const override;
};

struct UnaryExpr final : Expr {
  UnOp op = UnOp::Neg;
  ExprPtr operand;

  UnaryExpr() : Expr(ExprKind::Unary) {}
  UnaryExpr(UnOp o, ExprPtr e) : Expr(ExprKind::Unary), op(o), operand(std::move(e)) {}
  ExprPtr clone() const override;
};

struct BinaryExpr final : Expr {
  BinOp op = BinOp::Add;
  ExprPtr lhs, rhs;

  BinaryExpr() : Expr(ExprKind::Binary) {}
  BinaryExpr(BinOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::Binary), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
  ExprPtr clone() const override;
};

/// Explicit '(int16)x' casts and the implicit conversions sema inserts at
/// assignments / calls / arithmetic promotions.
struct CastExpr final : Expr {
  ExprPtr operand;
  bool isImplicit = false;

  CastExpr() : Expr(ExprKind::Cast) {}
  CastExpr(ScalarType to, ExprPtr e, bool implicit) : Expr(ExprKind::Cast), operand(std::move(e)), isImplicit(implicit) {
    type = to;
  }
  ExprPtr clone() const override;
};

/// Names of the compiler-known intrinsics.
namespace intrinsics {
inline constexpr const char* kLoadPrev = "ROCCC_load_prev";
inline constexpr const char* kStoreNext = "ROCCC_store2next";
inline constexpr const char* kCos = "ROCCC_cos";
inline constexpr const char* kSin = "ROCCC_sin";
inline constexpr const char* kLookup = "ROCCC_lookup";
inline constexpr const char* kBitSelect = "ROCCC_bit_select";
inline constexpr const char* kBitConcat = "ROCCC_bit_concat";
enum class Id { None, LoadPrev, StoreNext, Cos, Sin, Lookup, BitSelect, BitConcat };
/// The intrinsic `name` spells, or Id::None for any other callee.
Id lookup(const std::string& name);
bool isIntrinsic(const std::string& name);
} // namespace intrinsics

/// Calls: either a user function (inlined before hardware generation) or a
/// ROCCC intrinsic (ROCCC_load_prev, ROCCC_cos, ROCCC_lookup, ...).
struct CallExpr final : Expr {
  std::string callee;
  intrinsics::Id intrinsic = intrinsics::Id::None; ///< resolved by sema
  std::vector<ExprPtr> args;

  CallExpr() : Expr(ExprKind::Call) {}
  ExprPtr clone() const override;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind { Block, Decl, Assign, If, For, Return, CallStmt };

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind kind;
  SourceLoc loc;

  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
  virtual StmtPtr clone() const = 0;
};

struct BlockStmt final : Stmt {
  std::vector<StmtPtr> stmts;

  BlockStmt() : Stmt(StmtKind::Block) {}
  StmtPtr clone() const override;
};

struct DeclStmt final : Stmt {
  VarDecl var;
  ExprPtr init; ///< may be null

  DeclStmt() : Stmt(StmtKind::Decl) {}
  StmtPtr clone() const override;
};

/// Targets of assignment: a scalar variable, an array element, or a scalar
/// out-parameter dereference ('*x3 = c').
struct LValue {
  enum class Kind { Var, ArrayElem, Deref } kind = Kind::Var;
  std::string name;
  const VarDecl* decl = nullptr;
  std::vector<ExprPtr> indices; ///< for ArrayElem

  LValue clone() const;
};

struct AssignStmt final : Stmt {
  LValue target;
  ExprPtr value;

  AssignStmt() : Stmt(StmtKind::Assign) {}
  StmtPtr clone() const override;
};

struct IfStmt final : Stmt {
  ExprPtr cond;
  StmtPtr thenBody;
  StmtPtr elseBody; ///< may be null

  IfStmt() : Stmt(StmtKind::If) {}
  StmtPtr clone() const override;
};

/// Canonical counted loop: `for (i = begin; i < end; i = i + step)`.
/// The parser accepts <=, and normalizes it into `<` form during sema.
struct ForStmt final : Stmt {
  std::string inductionVar;
  /// The for-init declared a type (`for (int i = ...)`). Without one the
  /// init names a variable, which may be one declared outside the loop.
  bool declaresType = false;
  const VarDecl* inductionDecl = nullptr;
  ExprPtr begin;
  ExprPtr end;       ///< exclusive bound
  int64_t step = 1;  ///< positive constant
  StmtPtr body;

  ForStmt() : Stmt(StmtKind::For) {}
  StmtPtr clone() const override;
};

struct ReturnStmt final : Stmt {
  ReturnStmt() : Stmt(StmtKind::Return) {}
  StmtPtr clone() const override;
};

/// Expression statement holding a call (void user function or
/// ROCCC_store2next).
struct CallStmt final : Stmt {
  ExprPtr call; ///< always a CallExpr

  CallStmt() : Stmt(StmtKind::CallStmt) {}
  StmtPtr clone() const override;
};

// ---------------------------------------------------------------------------
// Functions and modules
// ---------------------------------------------------------------------------

struct Function {
  std::string name;
  std::vector<VarDecl> params;
  std::unique_ptr<BlockStmt> body;
  SourceLoc loc;
  /// Number of frame slots sema numbered (params and locals).
  int frameSlots = 0;

  Function() = default;
  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;
  Function(Function&&) = default;
  Function& operator=(Function&&) = default;

  Function cloneFn() const;
  const VarDecl* findParam(const std::string& n) const;
};

struct Module {
  std::vector<VarDecl> globals;
  std::vector<Function> functions;
  /// Declarations synthesized during analysis/transforms (e.g. loop
  /// induction variables), owned here so AST pointers to them stay stable.
  /// NOTE: VarRef/ArrayRef decl pointers point into `globals` / function
  /// `params` / DeclStmt nodes; structural transforms that rebuild those
  /// must re-run ast::analyze() to refresh resolution.
  std::vector<std::unique_ptr<VarDecl>> ownedDecls;

  Function* findFunction(const std::string& name);
  const Function* findFunction(const std::string& name) const;
  const VarDecl* findGlobal(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Utilities
// ---------------------------------------------------------------------------

/// Pretty-prints back to (parseable) C. Used by tests to round-trip
/// transforms and by the figure benches to show the Fig 3/4 code forms.
std::string printExpr(const Expr& e);
std::string printStmt(const Stmt& s, int indentLevel = 0);
std::string printFunction(const Function& f);
std::string printModule(const Module& m);

/// Walks every sub-expression of `e` (pre-order), calling fn.
void forEachExpr(const Expr& e, const std::function<void(const Expr&)>& fn);
/// Walks every statement and expression in a statement tree.
void forEachStmt(const Stmt& s, const std::function<void(const Stmt&)>& fn);
void forEachExprInStmt(const Stmt& s, const std::function<void(const Expr&)>& fn);

/// If `e` is a compile-time constant (literals and arithmetic over them),
/// returns its value.
std::optional<int64_t> evalConstant(const Expr& e);

} // namespace roccc::ast
