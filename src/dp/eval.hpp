// Reference evaluator for a built DataPath — one iteration, value-accurate
// at the *inferred* widths. Used by tests to prove (a) data-path
// construction preserves MIR semantics and (b) bit-width narrowing never
// loses bits that reach an output.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dp/datapath.hpp"

namespace roccc::dp {

struct EvalResult {
  std::vector<Value> outputs;                ///< by output port index
  std::map<std::string, Value> nextFeedback; ///< SNX values
};

/// Evaluates one data path iteration after iteration. The op order is
/// worked out once, and the value and operand scratch and the result are
/// kept between calls, so a stream of iterations allocates nothing after
/// the first.
class Evaluator {
 public:
  /// `dp` must outlive the evaluator.
  explicit Evaluator(const DataPath& dp);

  /// Computes every op at its inferred (narrowed) width. `feedback` carries
  /// previous-iteration register values; missing entries use initial
  /// values. The result stays valid until the next call; `feedback` must
  /// not alias it.
  const EvalResult& run(const std::vector<Value>& inputs,
                        const std::map<std::string, Value>& feedback);

 private:
  const DataPath& dp_;
  std::vector<size_t> order_; ///< op indices in evaluation order
  bool cyclic_ = false;       ///< some op never becomes ready
  std::vector<std::optional<Value>> values_;
  std::vector<Value> ops_;
  EvalResult result_;
};

/// One iteration on a fresh Evaluator.
EvalResult evaluate(const DataPath& dp, const std::vector<Value>& inputs,
                    const std::map<std::string, Value>& feedback);

} // namespace roccc::dp
