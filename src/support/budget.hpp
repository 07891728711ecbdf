// Per-job resource governance: the CompileBudget.
//
// One pathological job (an --unroll explosion, a deeply nested expression, a
// pass that never reaches its fixpoint) must not take down a batch — the
// serving layer's contract is "a job can fail, a batch cannot crash". A
// CompileBudget carries the four per-job limits:
//
//   - a wall-clock deadline (timeoutMs),
//   - an IR-node budget across all live IRs (maxIrNodes),
//   - a cap on the product of all unroll expansions (maxUnrollProduct),
//   - a recursion/nesting-depth cap (maxDepth).
//
// Enforcement is cooperative: the PassManager calls checkpointPass() at every
// pass boundary, and the known hot loops (HLIR unroll expansion, the MIR
// optimize fixpoint, RTL netlist elaboration, the recursive-descent parser)
// call the thread-local free functions below. A violated limit throws the
// typed BudgetExceeded, which the pipeline converts into a structured
// CompileResult outcome (Timeout / ResourceExceeded) at the pass edge.
//
// Cost when disarmed: every limit defaults to "unlimited" except the depth
// cap, and each check is a branch on a cached flag — no clock reads, no IR
// walks. Armed-but-untriggered governance cost 1-5% of a Table 1 compile
// sweep when last measured (EXPERIMENTS.md, "Cost of governance").
//
// Layer code reaches the current job's budget through a thread_local
// installed by Compiler::compileSource (each batch job runs wholly on one
// worker thread), so no layer API had to grow a budget parameter.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace roccc {

/// Which limit a BudgetExceeded reports.
enum class BudgetKind { Deadline, IrNodes, UnrollProduct, Depth };
const char* budgetKindName(BudgetKind kind);

/// Per-job limits, threaded through CompileOptions. 0 = unlimited for every
/// field except maxDepth, whose default guards the recursive-descent parser
/// (and every recursive AST walk downstream of it) against stack overflow.
struct BudgetLimits {
  /// Wall-clock deadline for the whole compile, in milliseconds. 0 = none.
  /// Negative = already expired (deterministic Timeout, used by tests).
  int64_t timeoutMs = 0;
  /// Max total IR nodes (AST stmts+exprs, MIR instrs, data-path ops/values,
  /// RTL cells+nets) measured at every pass boundary. 0 = unlimited.
  int64_t maxIrNodes = 0;
  /// Max product of all unroll expansions performed by the HLIR transforms
  /// (full unrolls multiply by the trip count, partial unrolls by the
  /// factor). 0 = unlimited.
  int64_t maxUnrollProduct = 0;
  /// Max parser recursion / statement nesting depth. 0 = unlimited.
  int maxDepth = 256;

  friend bool operator==(const BudgetLimits&, const BudgetLimits&) = default;
};

/// Typed escape raised by a checkpoint. Caught at the PassManager pass edge
/// (never crosses the CompileService API) and classified as Timeout
/// (Deadline) or ResourceExceeded (everything else).
class BudgetExceeded : public std::runtime_error {
 public:
  BudgetExceeded(BudgetKind kind, const std::string& where, int64_t observed, int64_t limit);

  BudgetKind kind() const { return kind_; }
  const std::string& where() const { return where_; }
  int64_t observed() const { return observed_; }
  int64_t limit() const { return limit_; }

 private:
  BudgetKind kind_;
  std::string where_;
  int64_t observed_;
  int64_t limit_;
};

/// One job's live budget. Constructed per compile from the options; the
/// deadline clock starts at construction.
class CompileBudget {
 public:
  explicit CompileBudget(const BudgetLimits& limits);

  const BudgetLimits& limits() const { return limits_; }

  /// Deadline-only check for hot loops; throws BudgetExceeded{Deadline}.
  void checkDeadline(const char* where);
  /// Deadline + IR-size check at a pass boundary. `irNodes` is only
  /// consulted when maxIrNodes is set (callers gate the measurement on
  /// wantsIrNodeCount() to keep the disarmed path free).
  void checkpointPass(const char* passName, int64_t irNodes);
  /// Multiplies the accumulated unroll-expansion product by `factor`
  /// (saturating) and throws BudgetExceeded{UnrollProduct} past the cap.
  void chargeUnroll(int64_t factor, const char* where);
  /// Starts the unroll-expansion product over at 1, for a job that compiles
  /// several designs (the auto-unroll search) under one budget.
  void restartUnrollProduct() { unrollProduct_ = 1; }
  /// Throws BudgetExceeded{Depth} when `depth` exceeds the nesting cap.
  void checkDepth(int64_t depth, const char* where);

  /// True when checkpointPass wants a real IR-node count (maxIrNodes set).
  bool wantsIrNodeCount() const { return limits_.maxIrNodes > 0; }
  int64_t unrollProduct() const { return unrollProduct_; }

 private:
  BudgetLimits limits_;
  bool hasDeadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  int64_t unrollProduct_ = 1;
};

/// RAII installation of a job's budget into this thread's slot. The free
/// functions below act on the installed budget and are no-ops without one,
/// so layer code can checkpoint unconditionally.
class BudgetScope {
 public:
  explicit BudgetScope(CompileBudget* budget);
  ~BudgetScope();
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  CompileBudget* prev_;
};

/// The budget installed on this thread, or nullptr.
CompileBudget* currentBudget();
/// Cooperative deadline checkpoint for hot loops (no-op when no budget).
void budgetCheckpoint(const char* where);
/// Unroll-expansion charge (no-op when no budget).
void budgetChargeUnroll(int64_t factor, const char* where);
/// Recursion/nesting-depth check (no-op when no budget).
void budgetCheckDepth(int64_t depth, const char* where);

} // namespace roccc
