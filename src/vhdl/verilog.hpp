// Verilog-2001 backend (library extension beyond the paper, which emits
// VHDL only): prints the same rtl::Module as the VHDL printer, in the same
// structure — one module per data-path node with the cells lowered from it
// and its pipeline registers, ROM modules built from the ROM cells' tables,
// and a top module with the input-port chains, the valid chain and the
// gated feedback registers. Values are plain bit vectors; signedness is made
// explicit through generated sign/zero extensions and $signed only where a
// shift or a comparison depends on it, so the text does not depend on
// Verilog's self-determination rules.
#pragma once

#include <string>
#include <vector>

#include "dp/datapath.hpp"
#include "hlir/kernel.hpp"
#include "rtl/netlist.hpp"

namespace roccc::verilog {

/// Prints `module` as a Verilog design. The data path supplies only names
/// and counts, as for vhdl::emitDesign.
std::string emitDesign(const dp::DataPath& dp, const rtl::Module& module,
                       const hlir::KernelInfo& kernel);

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
