// Verilog-2001 backend (library extension beyond the paper, which emits
// VHDL only): the same node-per-entity structure as the VHDL emitter —
// one module per data-path node, ROM modules for lookup tables, and a top
// module with the cross-node pipeline registers and gated feedback
// registers. Values are plain bit vectors; signedness is made explicit
// through generated sign/zero extensions, so the text does not depend on
// Verilog's self-determination rules.
#pragma once

#include <string>
#include <vector>

#include "dp/datapath.hpp"
#include "hlir/kernel.hpp"

namespace roccc::verilog {

/// Emits the complete Verilog design for a compiled kernel.
std::string emitDesign(const dp::DataPath& dp, const hlir::KernelInfo& kernel);

/// Structural validator for the emitted Verilog (module/endmodule balance,
/// declared-before-assigned wires/regs, instantiations resolve). Defined in
/// check.cpp, on the same one-pass lexer as vhdl::checkDesign.
struct CheckResult {
  bool ok = true;
  std::vector<std::string> problems;
  int moduleCount = 0;
  int instantiationCount = 0;
  int alwaysCount = 0;
};
CheckResult checkDesign(const std::string& verilogText);

} // namespace roccc::verilog
