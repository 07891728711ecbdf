// AST interpreter — the software golden model.
//
// Paper section 4.2.2 observes that the soft nodes "will have the same
// behavior on a CPU compared with the whole data path on a FPGA"; every
// hardware result in this repository is validated against this interpreter
// (hardware/software cosimulation).
//
// Variables live in flat slot vectors numbered by sema (VarDecl::slot): one
// frame per active call and one global store that every frame shares.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "support/diag.hpp"
#include "support/value.hpp"

namespace roccc::interp {

/// Named scalar and array bindings for one kernel invocation. Array values
/// are stored as plain int64 and converted to the element type on access.
struct KernelIO {
  std::map<std::string, int64_t> scalars;
  std::map<std::string, std::vector<int64_t>> arrays;
};

/// Thrown on semantic violations the front end cannot catch statically
/// (out-of-bounds dynamic index, unbound array, step-limit exceeded).
struct InterpError {
  SourceLoc loc;
  std::string message;
};

class Interpreter {
  /// One variable's storage. A scalar reads as uninitialized until `set`;
  /// an array keeps its elements in `elems` (row-major). For a const global
  /// array, `set` records that `elems` holds the declared initializer.
  struct Slot {
    Value value;
    bool set = false;
    std::vector<Value> elems;
  };
  /// A call's slots, indexed by VarDecl::slot.
  using Frame = std::vector<Slot>;

 public:
  /// `module` must have been analyzed (ast::analyze) after its last change.
  explicit Interpreter(const ast::Module& module, uint64_t stepLimit = 100'000'000)
      : module_(module), stepLimit_(stepLimit) {}

  /// Executes `fnName` with inputs bound from `io` (scalars by param name,
  /// arrays by param or global name). Returns the final state of all
  /// out-scalars and arrays. Const global arrays are implicitly available.
  KernelIO run(const std::string& fnName, const KernelIO& io);

  /// One function bound once to positional scalar inputs and outputs, for
  /// callers that run it many times (a step per loop iteration, a table
  /// entry per index). A call starts from the same state `run` would with
  /// only those scalars bound; after the first call it allocates nothing.
  /// Holds the Interpreter, which must outlive it.
  class PreparedCall {
   public:
    /// Binds `inputs[i]` to the i-th input name (converted to its declared
    /// type), runs the function, and stores the final value of the i-th
    /// output name in `outputs[i]`.
    void operator()(std::span<const Value> inputs, std::span<Value> outputs);

   private:
    friend class Interpreter;
    PreparedCall(Interpreter& interp, const ast::Function& fn) : interp_(&interp), fn_(&fn) {}

    Interpreter* interp_;
    const ast::Function* fn_;
    Frame frame_;
    std::vector<const ast::VarDecl*> inputs_, outputs_;
  };

  /// Prepares `fnName` with scalar inputs and outputs named in order. A name
  /// resolves to a parameter of the function (an input to an in-parameter,
  /// an output to an out-parameter) or else to a global scalar, whose
  /// initial value an input overrides. Throws InterpError, as `run` does,
  /// when an in-parameter is left unnamed.
  PreparedCall prepare(const std::string& fnName, const std::vector<std::string>& inputs,
                       const std::vector<std::string>& outputs);

  /// Number of statements executed by the last run or call (used by the
  /// profiling example to find hot kernels, ref [10]).
  uint64_t stepsExecuted() const { return steps_; }

 private:
  const ast::Module& module_;
  uint64_t stepLimit_;
  uint64_t steps_ = 0;
  /// Global scalars and arrays by position in module_.globals.
  std::vector<Slot> globals_;

  const ast::Function& function(const std::string& name) const;
  Slot& slotOf(const ast::VarDecl& d, Frame& f);
  void resetGlobals(const KernelIO* io);
  void enterFrame(const ast::Function& fn, Frame& frame, const KernelIO* io);
  void execBody(const ast::Function& fn, Frame& frame);

  Value evalExpr(const ast::Expr& e, Frame& f);
  void execStmt(const ast::Stmt& s, Frame& f);
  void execBlockInCurrentScope(const ast::BlockStmt& b, Frame& f);
  void callFunction(const ast::Function& fn, const ast::CallExpr& call, Frame& caller);
  Value evalIntrinsic(const ast::CallExpr& c, Frame& f);
  int64_t flatIndex(const ast::VarDecl& d, const std::vector<ast::ExprPtr>& indices,
                    SourceLoc loc, Frame& f);

  void bumpStep(SourceLoc loc);
};

/// One-call convenience wrapper.
KernelIO runKernel(const ast::Module& m, const std::string& fnName, const KernelIO& io);

/// Reference content of the pre-existing cos/sin lookup-table IP (10-bit
/// phase, Q15 output). The RTL ROM primitive and the interpreter both use
/// this single definition so cosimulation stays bit-exact.
int64_t cosSinLookupReference(int index, bool sine);

} // namespace roccc::interp
