// The "Graph Editor + Annotation" box of the paper's Fig 1: the generated
// data path can be exported for inspection and hand-annotated before VHDL
// generation — expert users override inferred signal widths (the paper's
// "more aggressive bit narrowing, performed by users") or move operations
// between pipeline stages.
#pragma once

#include <map>
#include <string>

#include "dp/datapath.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"

namespace roccc::dp {

/// The data path (nodes, ops, values, stages, widths, ports, feedback
/// registers) as a JSON document for external graph editors.
json::Value exportJson(const DataPath& dp);

/// Hand annotations applied on top of the automatic result.
struct Annotations {
  /// Override a value's hardware width by (debug) name. Narrowing below the
  /// inferred requirement is accepted with a warning — it changes
  /// semantics, exactly like a hand edit of the VHDL would.
  std::map<std::string, int> forceWidth;
  /// Pin an op (by index) to a pipeline stage. Stages of dependent ops are
  /// repaired forward to keep definitions before uses.
  std::map<int, int> forceStage;
};

/// Applies annotations in place, repairs stage monotonicity, and recomputes
/// the statistics. Returns false (with diagnostics) on unknown names/ops.
/// Rebuild the RTL module (rtl::buildDatapathModule) afterwards.
bool applyAnnotations(DataPath& dp, const Annotations& a, DiagEngine& diags);

} // namespace roccc::dp
