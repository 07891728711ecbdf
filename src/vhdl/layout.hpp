// What both HDL emitters (emit.cpp for VHDL, verilog.cpp for Verilog) need
// to know about a data path before writing text: HDL-safe identifiers, the
// name of every value, each node's ports and pipeline latches, and the
// top level's signals and register chains. layoutDesign computes all of it
// in one pass over the ops, so emission stays linear in design size.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "dp/datapath.hpp"

namespace roccc::hdl {

/// HDL-safe identifier from a debug name (valid in VHDL and Verilog).
std::string sanitize(std::string_view s);

/// Address width of a ROM holding `entries` words (at least one bit).
int addrBits(size_t entries);

/// True if `vid` is defined by an Ldc op; constants are written inline as
/// literals and never become ports or signals.
bool isConstValue(const dp::DataPath& dp, int vid);

/// Stage of the op defining `vid` (0 for input ports).
int defStage(const dp::DataPath& dp, int vid);

struct NodeInput {
  int value;         ///< external, non-constant value the node consumes
  int firstUseStage; ///< earliest stage of an op in the node that reads it
};

/// A pipeline register holding `value` at `stage` (fed from stage - 1).
struct StagedValue {
  int value;
  int stage;
};

struct NodeIO {
  std::vector<NodeInput> inputs; ///< ascending value id
  std::vector<int> outputs;      ///< produced values used outside the node, ascending
  /// Node-internal latches for values an op of the node reads at a later
  /// stage than the node defined them, in declaration order.
  std::vector<StagedValue> copies;
  /// The node needs clk/ce ports.
  bool clocked() const { return !copies.empty(); }
};

struct DesignLayout {
  std::vector<std::string> valueNames; ///< "v<id>_<sanitized name>", indexed by value id
  std::vector<NodeIO> nodes;           ///< indexed like dp.nodes
  /// Values the top level declares as signals (node ports, output-port
  /// and feedback values; no constants or input ports), ascending.
  std::vector<int> topSignals;
  /// Top-level registers carrying a value across nodes to the stage that
  /// reads it, in declaration order.
  std::vector<StagedValue> topChains;
  /// Per value id: the last stage a top-level chain carries it to (0: none).
  std::vector<int> topChainEnd;
};

DesignLayout layoutDesign(const dp::DataPath& dp);

} // namespace roccc::hdl
