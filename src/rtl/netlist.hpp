// RTL netlist: the one lowered form of a design. The cycle-accurate
// simulators execute it, the synthesis estimator prices it, and the VHDL
// and Verilog printers (src/vhdl) write it out cell by cell, one entity per
// data-path node. Cells correspond one-to-one to the hardware the compiler
// emits: IEEE 1076.3 arithmetic operators, multiplexers, clocked registers
// (with a global clock-enable), and ROM IP blocks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mir/ir.hpp"
#include "support/value.hpp"

namespace roccc::rtl {

enum class CellKind {
  Const,
  Add, Sub, Mul, Neg,
  And, Or, Xor, Not,
  Shl, Shr,
  Eq, Ne, Lt, Le, Gt, Ge,
  Mux,   ///< inputs: sel, a (sel=1), b (sel=0)
  Reg,   ///< clocked register; inputs: d [, en]; latches on tick when the
         ///< global enable AND the optional en input are high
  Rom,   ///< input: address; asynchronous read in simulation (sync timing is
         ///< modeled by the stage the LUT op was placed in)
  Slice, ///< bits [aux0:aux1] of the input
  Concat,///< {hi, lo}
  Resize,///< width/sign conversion (sign-extend per input net type)
};

const char* cellKindName(CellKind k);
/// True for cells with clocked state.
bool isSequential(CellKind k);

struct Net {
  int id = -1;
  ScalarType type = ScalarType::intTy();
  std::string name;
  int driver = -1; ///< driving cell (-1 for input ports)
};

struct Cell {
  int id = -1;
  CellKind kind = CellKind::Const;
  std::vector<int> inputs; ///< net ids
  int output = -1;         ///< net id
  int64_t imm = 0;         ///< Const value / Reg initial value
  int aux0 = 0, aux1 = 0;  ///< Slice hi/lo
  std::string romName;     ///< Rom: table name (for VHDL component naming)
  std::vector<int64_t> romData;
  ScalarType romElemType = ScalarType::intTy();
  /// The data-path node the cell was lowered from, whose entity prints it;
  /// -1 for the top level (input-port chains, the valid chain, feedback
  /// registers and output-port conversions).
  int node = -1;
};

/// A synthesizable module: nets + cells + ports. One implicit clock and one
/// implicit clock-enable control all Reg cells.
struct Module {
  std::string name;
  std::vector<Net> nets;
  std::vector<Cell> cells;
  std::vector<int> inputPorts;  ///< net ids
  std::vector<int> outputPorts; ///< net ids
  std::vector<std::string> inputNames, outputNames;
  /// Pipeline latency in clock-enabled cycles from input presentation to
  /// the corresponding output sample (stageCount - 1 for datapath modules).
  int latency = 0;

  int addNet(ScalarType t, std::string name);
  /// Adds a cell; sets the output net's driver. Returns cell id.
  int addCell(CellKind kind, std::vector<int> inputs, int output);
  int addConst(int64_t value, ScalarType t, const std::string& name = "");

  int cellCount(CellKind k) const;
  int64_t registerBits() const;
  std::string dump() const;
  /// Structural validation (drivers, port wiring, types); appends problems.
  bool verify(std::vector<std::string>& errors) const;
};

/// Simulates a Module cycle by cycle.
class NetlistSim {
 public:
  explicit NetlistSim(const Module& m);

  /// Drives an input port for the current cycle.
  void setInput(size_t port, const Value& v);
  /// Propagates combinational logic from the current inputs/register state.
  void eval();
  /// Clock edge: registers latch when `enable` is true.
  void tick(bool enable);
  /// Reads an output port (call after eval()).
  Value output(size_t port) const;
  /// Reads any net (testing/debug).
  Value netValue(int net) const;
  /// Resets registers to their initial values.
  void reset();

 private:
  /// One register, read from its Cell and Net once at construction so the
  /// per-cycle eval()/tick() loops touch only this table.
  struct Latch {
    int d = -1, en = -1, out = -1; ///< net ids (en < 0: no clock-enable)
    ScalarType type;               ///< output net type
    int64_t init = 0;              ///< reset value
  };

  const Module& m_;
  std::vector<Value> values_;
  std::vector<Value> regState_; ///< parallel to latches_
  std::vector<int> evalOrder_; ///< combinational cells, topologically sorted
  std::vector<Latch> latches_;

  Value evalCell(const Cell& c) const;
};

} // namespace roccc::rtl
