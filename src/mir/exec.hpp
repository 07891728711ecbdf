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

/// Runs one invocation: `inputs` by input-port index; `feedback` holds the
/// current (previous-iteration) feedback register values — LPR reads these
/// regardless of SNX order, matching the hardware's clocked register.
ExecResult execute(const FunctionIR& f, const std::vector<Value>& inputs,
                   const std::map<std::string, Value>& feedback);

} // namespace roccc::mir
