// What both HDL printers (emit.cpp for VHDL, verilog.cpp for Verilog) need
// to know about an rtl::Module before writing text: HDL-safe identifiers,
// how each cell input is named, and which entity prints each cell. One
// entity per data-path node holds the cells tagged with that node; the top
// level holds the untagged ones and wires the nodes together. A node's
// ports are the nets its printed cells read from, or are read by, another
// entity.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "rtl/netlist.hpp"

namespace roccc::hdl {

/// HDL-safe identifier from a debug name (valid in VHDL and Verilog).
std::string sanitize(std::string_view s);

/// Address width of a ROM holding `entries` words (at least one bit).
int addrBits(size_t entries);

/// How a printer names a net where a cell reads it: a literal, or bits
/// [lo, lo + type.width) of a named net, read as `type`. Constants are
/// always literals; a single-use Resize or Slice read in its own entity is
/// folded into the reference instead of getting a signal of its own.
struct Ref {
  int net = -1; ///< the named net; -1 for a literal
  int lo = 0;
  ScalarType type;
  int64_t literal = 0; ///< the value, when net < 0

  bool isLiteral() const { return net < 0; }
  /// The literal's value converted to `t`.
  Value literalAs(ScalarType t) const { return Value::fromInt(type, literal).convertTo(t); }
};

/// The type a cell's k-th input is read at: the bits its statement uses,
/// with the signedness they extend by.
ScalarType inputType(const rtl::Module& m, const rtl::Cell& c, size_t k);

struct Scope {
  std::vector<int> cells;   ///< cells the entity prints, ascending id
  std::vector<int> inputs;  ///< named nets read from another entity, ascending
  std::vector<int> outputs; ///< nets the entity drives that another one reads, ascending
  bool clocked = false;     ///< prints a Reg cell (needs clk/ce)
};

struct Partition {
  std::vector<Scope> scopes;      ///< one per data-path node, then the top level last
  std::vector<Ref> refs;          ///< per net: how its readers name it
  std::vector<std::string> names; ///< per net: its HDL identifier inside node entities
  std::vector<int> exported;      ///< nets some node exports (top-level signals), ascending
  std::vector<int> ports;         ///< output ports of the design (the first of m.outputPorts)

  const Scope& top() const { return scopes.back(); }
};

/// Partitions `m` into `nodeCount` node entities and the top level. The
/// first `dataInputs` input ports are the kernel's (the rest are controls,
/// the valid bit); only the first `dataOutputs` output ports are ports of
/// the printed design, the rest are simulation taps.
Partition partition(const rtl::Module& m, size_t nodeCount, size_t dataInputs, size_t dataOutputs);

} // namespace roccc::hdl
