// Circuit-level scalar optimizations over SSA-form MIR (section 2:
// "ROCCC's conventional optimizations include constant folding ..."; the
// SPARK-comparison transforms: common sub-expression elimination, copy
// propagation, dead code elimination).
#pragma once

#include <string>
#include <vector>

#include "mir/ir.hpp"

namespace roccc::mir {

/// Each pass returns the number of changes it made. All require SSA form
/// and preserve it.
int constantPropagate(FunctionIR& f);
int copyPropagate(FunctionIR& f);
int commonSubexpressionEliminate(FunctionIR& f);
int deadCodeEliminate(FunctionIR& f);
/// Multiplications by powers of two become shifts; algebraic identities
/// (x+0, x*1, x*0, x&0, ...) simplify. Division by a constant is left to
/// the data-path builder, which sizes it on the dividend's proven range.
int strengthReduce(FunctionIR& f);

/// Typed change counters from runStandardPasses — consumed by the
/// PassManager's PassStatistics records (no free-text log).
struct StandardPassStats {
  int rounds = 0; ///< fixed-point rounds executed
  int constProp = 0;
  int copyProp = 0;
  int strength = 0;
  int cse = 0;
  int dce = 0;

  int total() const { return constProp + copyProp + strength + cse + dce; }
};

/// Runs the standard pipeline to a fixed point; returns the accumulated
/// per-pass change counters.
StandardPassStats runStandardPasses(FunctionIR& f);

/// Rewrites side effects into value form so SSA can merge conditional
/// writes (run BEFORE buildSSA): every `Out port, v` / `Snx fb, v` becomes a
/// move into a synthetic per-port register, and a single Out/Snx per port /
/// feedback register is appended to the exit block. After SSA, conditional
/// stores show up as phis, which the data-path generator turns into the
/// mux "hard nodes" of paper Fig 6. A path that never writes a port yields
/// that port's entry default (0).
void canonicalizeSideEffects(FunctionIR& f);

} // namespace roccc::mir
