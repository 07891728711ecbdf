// VHDL testbench generation: wraps the emitted data-path design in a
// self-checking testbench a downstream user can hand straight to a VHDL
// simulator and reproduce the library's bit-exact verification there.
//
// Two levels exist:
//   - makeVectors/emitTestbench: datapath-level, caller-supplied input sets
//     with dp::evaluate expectations (feedback threaded across vectors);
//   - makeSystemVectors/emitSystemTestbench: system-level — the stimulus is
//     the kernel's whole iteration space gathered per the Fig 2 streaming
//     model (windows, scalars, live induction values), and the expected
//     outputs come from the AST interpreter running the extracted data-path
//     function. Optional seeded random extra vectors extend the sequence
//     past the iteration space; the seed is recorded in the testbench
//     header so any emitted file pins its exact vectors. The interpreter
//     trace is the same one the conformance engine (roccc/verify.*) records
//     as its oracle, so a verify job runs it once: that one trace feeds
//     engines 2-3 and these vectors (only the extras run the interpreter
//     again).
//
// simulateTestbench replays the emitted testbench's schedule (stimulus held
// during the pipeline flush, assertions sampling pre-edge values, tb_valid
// high throughout) on a netlist engine, so a ctest can assert the generated
// file would report "TESTBENCH PASSED" without an external VHDL simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dp/datapath.hpp"
#include "hlir/kernel.hpp"
#include "interp/interp.hpp"
#include "rtl/netlist.hpp"
#include "rtl/fastsim.hpp"
#include "rtl/system.hpp"
#include "support/value.hpp"

namespace roccc::vhdl {

/// One test vector: values for every data-path input port and the expected
/// values on every output port `latency` enabled-cycles later.
struct TestVector {
  std::vector<Value> inputs;
  std::vector<Value> expectedOutputs;
};

/// Provenance of a system-level vector set, recorded in the emitted
/// testbench header.
struct TestbenchInfo {
  std::string kernelName;
  int64_t traceVectors = 0; ///< interpreter-derived (one per loop iteration)
  int extraVectors = 0;     ///< seeded random extras appended after the trace
  uint64_t seed = 0;        ///< SplitMix64 seed of the extras (0 when none)
};

/// Emits a self-checking testbench entity `<design>_tb` that drives the
/// top entity with the vectors, pipelines the expectations by the design
/// latency, asserts on mismatch, and reports "TESTBENCH PASSED" on success.
std::string emitTestbench(const dp::DataPath& dp, const std::vector<TestVector>& vectors);

/// Builds vectors by evaluating the data path on the given input sets
/// (feedback registers thread across vectors in order, so the sequence
/// behaves like consecutive loop iterations).
std::vector<TestVector> makeVectors(const dp::DataPath& dp,
                                    const std::vector<std::vector<int64_t>>& inputSets);

/// Builds the system-level vector set: the whole iteration space of the
/// kernel executed by the AST interpreter on the extracted data-path
/// function (stimulus gathered per the streaming model: input windows,
/// loop-invariant scalars, live induction values; feedback threaded), plus
/// `extraRandom` seeded random vectors continuing the feedback sequence.
/// Fills `info` with the provenance when non-null.
std::vector<TestVector> makeSystemVectors(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                                          const interp::KernelIO& io, int extraRandom,
                                          uint64_t seed, TestbenchInfo* info = nullptr);

/// The same vector set from an interpreter trace the caller already holds:
/// `trace` must be rtl::traceStreamingModel over the kernel's stimulus with
/// rtl::interpreterStep (the io form above builds exactly that, then
/// delegates here). Only the extras run the interpreter.
std::vector<TestVector> makeSystemVectors(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                                          const rtl::StreamTrace& trace, int extraRandom,
                                          uint64_t seed, TestbenchInfo* info = nullptr);

/// emitTestbench plus a provenance header: kernel name, loop structure,
/// vector counts, and the extras seed.
std::string emitSystemTestbench(const dp::DataPath& dp, const hlir::KernelInfo& kernel,
                                const std::vector<TestVector>& vectors,
                                const TestbenchInfo& info);

/// Outcome of replaying a testbench schedule on a netlist engine.
struct TestbenchSimResult {
  bool passed = false;
  std::string firstFailure; ///< first failing assertion, empty when passed
};

/// Replays the exact schedule the emitted testbench executes — per-cycle
/// stimulus (held at the last vector during the flush), tb_valid high,
/// assertions reading pre-edge values latency cycles after presentation —
/// on the compiled module under the given engine. `passed` iff the VHDL
/// testbench would report "TESTBENCH PASSED" under the reference netlist
/// semantics.
TestbenchSimResult simulateTestbench(const dp::DataPath& dp, const rtl::Module& module,
                                     const std::vector<TestVector>& vectors,
                                     rtl::SimEngine engine);

} // namespace roccc::vhdl
