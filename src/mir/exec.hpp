// Reference executor for MIR functions — one iteration of the data path.
// Shares its operation semantics with the optimization passes (evalPureOp)
// and, transitively, with the RTL primitives, so every layer of the stack
// computes identical bits.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mir/ir.hpp"
#include "support/value.hpp"

namespace roccc::mir {

/// Evaluates a pure operation given operand values; nullopt when `in` is
/// not pure or not evaluable (In/Phi). Lut requires `table`; every other
/// opcode ignores it, so callers look a table up only for Lut.
std::optional<Value> evalPureOp(const Instr& in, std::span<const Value> operands,
                                const FunctionIR::Table* table);

struct ExecResult {
  std::vector<Value> outputs;                 ///< by output-port index
  std::map<std::string, Value> nextFeedback;  ///< SNX values (post-iteration)
};

/// Runs invocations of one function back to back, keeping the register
/// file, the operand and phi scratch and the result between calls, so a
/// stream of iterations allocates nothing after the first.
class Executor {
 public:
  /// `f` must outlive the executor.
  explicit Executor(const FunctionIR& f);

  /// One invocation: `inputs` by input-port index; `feedback` holds the
  /// current (previous-iteration) feedback register values — LPR reads
  /// these regardless of SNX order, matching the hardware's clocked
  /// register. The result stays valid until the next call; `feedback` must
  /// not alias it.
  const ExecResult& run(const std::vector<Value>& inputs,
                        const std::map<std::string, Value>& feedback);

 private:
  const FunctionIR& f_;
  size_t outCount_ = 0;
  std::vector<std::optional<Value>> regs_;
  std::vector<std::pair<int, Value>> phiValues_;
  std::vector<Value> operands_;
  ExecResult result_;
};

/// One invocation on a fresh Executor.
ExecResult execute(const FunctionIR& f, const std::vector<Value>& inputs,
                   const std::map<std::string, Value>& feedback);

} // namespace roccc::mir
