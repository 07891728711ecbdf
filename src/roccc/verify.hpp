// roccc-verify — the N-way differential conformance engine.
//
// The repository carries five independent executions of every compiled
// kernel, one per layer of the stack:
//
//   1. Interp      — the AST interpreter on the original C source (the
//                    golden model, paper section 4.2.2), cross-checked
//                    against the extracted streaming model;
//   2. MirExec     — mir::execute on the back-end IR, driven through the
//                    untimed streaming model (rtl::traceStreamingModel);
//   3. DpEval      — dp::evaluate on the built data path, same driver;
//   4. NetlistRef  — the cycle-accurate Fig 2 system clocked by the boxed
//                    NetlistSim reference engine;
//   5. FastSim     — the same system clocked by the compiled engine.
//
// verifyKernel runs all five on one stimulus and demands bit-identical
// results. By default the stimulus is deterministic (SplitMix64,
// platform-independent, derived from seed + kernel name); a caller with its
// own inputs (a test's vectors, an example's image) passes them instead.
// Any disagreement is reported as a minimized counterexample: the kernel,
// the first diverging vector (iteration) index, the engine and port — and,
// when the two netlist engines disagree with each other, the first
// diverging net and cycle from a lockstep replay.
//
// verifyConformance scales this over a corpus through CompileService, so
// conformance inherits the batch driver's determinism and fault-containment
// guarantees; the soak mode in tools/roccc_verify.cpp reuses the PR-4
// fault-injection harness to prove a failing job never poisons sibling
// verdicts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "roccc/driver.hpp"
#include "rtl/system.hpp"
#include "support/json.hpp"

namespace roccc {

enum class VerifyEngine { Interp, MirExec, DpEval, NetlistRef, FastSim };
inline constexpr int kVerifyEngineCount = 5;
const char* verifyEngineName(VerifyEngine e);

struct VerifyOptions {
  /// Stimulus seed; the per-kernel stream is seed mixed with the kernel
  /// name, so corpus order never changes a kernel's vectors.
  uint64_t seed = 0x0dc5'2005;
  /// Bit per VerifyEngine (1 << engine). Interp is the oracle and always
  /// runs; clearing its bit is ignored.
  unsigned engineMask = (1u << kVerifyEngineCount) - 1;
  /// Also generate the kernel's system-level self-checking testbench and
  /// replay it under both netlist engines (vhdl::simulateTestbench); a
  /// testbench that would not report "TESTBENCH PASSED" fails the verdict.
  bool checkTestbench = false;
  /// CompileService worker count for verifyConformance (0 = hardware).
  int workers = 0;
  /// Fig 2 system geometry for engines 4 and 5: bus width, smart buffer,
  /// cycle limit. Each engine sets `.engine` itself.
  rtl::SystemOptions system;
};

/// One minimized disagreement.
struct Counterexample {
  std::string kernel;
  VerifyEngine engine = VerifyEngine::Interp;
  std::string port;        ///< output port (or "net <name>" for lockstep divergence)
  int64_t index = -1;      ///< first diverging vector/iteration (or cycle for nets)
  std::string expected;    ///< golden value, rendered
  std::string got;         ///< engine value, rendered
  std::string detail;      ///< one-line human-readable description
  /// "<engine> engine, port <p>, index <i>: expected <e>, got <g>", or
  /// "<engine> engine: <detail>" when no port diverged.
  std::string str() const;
};

struct KernelVerdict {
  std::string kernel;
  CompileOutcome outcome = CompileOutcome::Ok;  ///< compile outcome
  std::string compileError;                     ///< diagnostics when not Ok
  bool agree = false;          ///< all requested engines matched (outcome Ok only)
  bool testbenchPassed = true; ///< only meaningful with VerifyOptions::checkTestbench
  int enginesRun = 0;
  int64_t iterations = 0;      ///< vectors checked per engine
  /// FNV-1a digest of the golden outputs (arrays, scalars); the soak mode
  /// compares sibling digests across fault-injected batches.
  uint64_t outputDigest = 0;
  std::vector<Counterexample> disagreements; ///< empty when agree
  /// The golden outputs (the AST interpreter on the original source).
  /// Not part of the JSON report.
  interp::KernelIO outputs;
  /// System statistics of the last netlist engine that ran (FastSim, else
  /// NetlistRef); zero when neither ran. Not part of the JSON report.
  rtl::SystemStats stats;
  /// The first problem, for a failure message: the compile error, or the
  /// first counterexample's str(). Empty when the verdict agrees.
  std::string firstProblem() const;
};

struct VerifyReport {
  std::vector<KernelVerdict> verdicts;
  int agreed() const;
  int compileFailures() const;
  bool allAgree() const; ///< every Ok-compiled kernel agreed (and testbenches passed)
  std::string summary() const;
  /// The roccc-verify --json report.
  json::Value toJson() const;
};

/// Deterministic stimulus covering the kernel's input arrays and scalars
/// (SplitMix64 over [type.min, type.max], mixed per array/scalar name).
interp::KernelIO deterministicStimulus(const hlir::KernelInfo& kernel, uint64_t seed);

/// Verifies one compiled kernel against its original source on `io`, which
/// binds the kernel's input arrays and scalar inputs by name. `compiled`
/// must be an Ok result carrying the IR fields (not a cache hit).
KernelVerdict verifyKernel(const std::string& name, const std::string& source,
                           const CompileResult& compiled, const interp::KernelIO& io,
                           const VerifyOptions& opt);

/// The same on deterministicStimulus(compiled.kernel, opt.seed).
KernelVerdict verifyKernel(const std::string& name, const std::string& source,
                           const CompileResult& compiled, const VerifyOptions& opt);

/// Compiles every job through CompileService and verifies each Ok result.
/// Jobs that fail to compile produce verdicts carrying the outcome; they do
/// not abort the batch (fault containment extends to conformance).
VerifyReport verifyConformance(const std::vector<CompileJob>& jobs, const VerifyOptions& opt);

} // namespace roccc
