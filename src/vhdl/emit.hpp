// RTL VHDL generation (paper section 4.2.4): "ROCCC generates one VHDL
// component for each CFG node that goes to hardware. In a node, every
// virtual register is single assigned and is converted into wires ...
// instructions become combinational or sequential VHDL statement according
// to whether the instruction needs latched or not. A LUT instruction
// invokes an instantiation of a lookup table component."
//
// The printer writes the rtl::Module the simulators execute and the
// estimator prices, one statement form per cell kind:
//   - one entity per data-path node holding the cells lowered from it:
//     combinational cells as concurrent signal assignments, its pipeline
//     registers in one clocked process, ROM cells as instantiations,
//   - lookup tables as ROM entities with a constant-array architecture,
//     built from the tables the ROM cells carry,
//   - a top entity instantiating every node and holding the input-port
//     chains, the valid chain and the LPR/SNX feedback registers (with
//     their reset values).
// Constants, and Resize/Slice cells read once in their own entity, are
// written inline in the statement that reads them (see vhdl/layout.hpp).
#pragma once

#include <string>

#include "dp/datapath.hpp"
#include "hlir/kernel.hpp"
#include "rtl/netlist.hpp"

namespace roccc::vhdl {

/// Prints `module` as a VHDL design. The data path supplies only names and
/// counts: the node labels, the header line, and how many of the module's
/// ports are the kernel's.
std::string emitDesign(const dp::DataPath& dp, const rtl::Module& module,
                       const hlir::KernelInfo& kernel);

} // namespace roccc::vhdl
