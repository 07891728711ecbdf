// The complete execution model of paper Fig 2: input BRAMs -> smart
// buffers -> fully pipelined data path -> output collector -> output BRAMs,
// sequenced by the controller. Simulation is cycle-accurate: throughput and
// memory-traffic numbers reported by the benches come from here.
//
// Two building blocks are exposed separately from the cycle-accurate System
// because the conformance engine (roccc/verify.*) and the testbench
// generator (vhdl/testbench.*) need the same semantics without the timing:
//   - PortBinding: the resolution of every data-path port to its system
//     role (stream-window access, loop-invariant scalar, live induction
//     value, window write-back, scalar out),
//   - traceStreamingModel: the untimed streaming model (Fig 2 minus the
//     clock) parameterized by a per-iteration step function, recording the
//     exact per-iteration port vectors any engine must reproduce.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dp/datapath.hpp"
#include "hlir/kernel.hpp"
#include "interp/interp.hpp"
#include "rtl/buffers.hpp"
#include "rtl/fastsim.hpp"
#include "rtl/netlist.hpp"
#include "support/diag.hpp"

namespace roccc::rtl {

/// Resolution of every data-path port to its role in the Fig 2 system.
/// Independent of any particular input binding; throws std::runtime_error
/// when a port cannot be matched to the kernel (a compiler invariant).
struct PortBinding {
  struct InSource {
    enum class Kind { Window, Scalar, Induction } kind = Kind::Scalar;
    size_t stream = 0, access = 0; ///< Window: kernel.inputs[stream], access
    std::string scalarName;        ///< Scalar: io.scalars key
    int loop = 0;                  ///< Induction: kernel.loops index
  };
  struct OutSink {
    enum class Kind { Window, Scalar } kind = Kind::Scalar;
    size_t stream = 0, access = 0; ///< Window: kernel.outputs[stream], access
    std::string scalarName;        ///< Scalar: result scalar name
  };
  std::vector<InSource> inputs;  ///< one per dp input port, in port order
  std::vector<OutSink> outputs;  ///< one per dp output port, in port order

  static PortBinding resolve(const hlir::KernelInfo& kernel, const dp::DataPath& dp);
};

/// One iteration of the data-path function: port-ordered input values and
/// the current feedback-register values in; the port-ordered output values
/// are written to `outputs`, and the next feedback values are returned in a
/// map the step owns, valid until its next call. Implementations: the AST
/// interpreter on the extracted data-path function, mir::Executor,
/// dp::Evaluator.
using StreamStep = std::function<const std::map<std::string, Value>&(
    const std::vector<Value>& inputs, const std::map<std::string, Value>& feedback,
    std::vector<Value>& outputs)>;

/// The per-iteration record of a streaming-model run: the exact stimulus
/// and response any conforming engine (or generated testbench) must
/// reproduce, plus the final kernel-level results.
struct StreamTrace {
  std::vector<std::vector<Value>> inputs;   ///< per iteration, by dp input port
  std::vector<std::vector<Value>> outputs;  ///< per iteration, by dp output port
  interp::KernelIO final;                   ///< same shape as System::run
  std::map<std::string, Value> finalFeedback; ///< post-run register values
};

/// Runs the untimed streaming model over the whole iteration space: gathers
/// each input window per PortBinding, calls `step`, scatters output windows
/// and threads feedback. Throws std::runtime_error on unbound arrays.
StreamTrace traceStreamingModel(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                                const interp::KernelIO& io, const StreamStep& step);

/// The AST-interpreter step: runs the extracted data-path function through
/// a call `sim` prepares once (`sim` must wrap kernel.dpModule and outlive
/// the returned closure). This is the golden per-iteration semantics both
/// the conformance engine and the system-level testbench generator drive.
StreamStep interpreterStep(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                           interp::Interpreter& sim);

struct SystemOptions {
  int inputBusElems = 1;   ///< elements each smart buffer fetches per clock
  int outputBusElems = 0;  ///< 0: wide enough for one window per clock
  bool useSmartBuffer = true; ///< false: naive re-fetching buffer (ablation)
  /// Which netlist engine clocks the data path. Fast is the compiled
  /// slot-indexed engine (rtl/fastsim.hpp); Reference is the boxed-Value
  /// oracle it is differentially tested against.
  SimEngine engine = SimEngine::Fast;
  int64_t cycleLimit = 50'000'000;
  /// Record a VCD waveform of the data-path module during the run
  /// (retrieve with System::vcd()).
  bool recordVcd = false;
};

struct SystemStats {
  int64_t cycles = 0;
  int64_t enabledCycles = 0;  ///< cycles with the pipeline advancing
  int64_t stallCycles = 0;
  int64_t iterations = 0;
  int64_t bramReads = 0;      ///< off-buffer (BRAM-side) element reads
  int64_t bramWrites = 0;
  int64_t bufferCapacityElems = 0; ///< total smart-buffer storage
  int pipelineStages = 1;
  /// Output elements produced per clock once the pipeline is full
  /// (the Table 1 DCT discussion: ROCCC emits 8/clock vs the IP's 1/clock).
  double steadyStateThroughput() const;
  int64_t outputElems = 0;
};

/// Runs a compiled kernel in the Fig 2 system and returns outputs in the
/// same shape interp::runKernel produces. Throws std::runtime_error on
/// simulation-level failures (cycle limit, unbound arrays).
class System {
 public:
  System(const hlir::KernelInfo& kernel, const dp::DataPath& dp, const Module& module,
         SystemOptions options = {});

  interp::KernelIO run(const interp::KernelIO& inputs);
  const SystemStats& stats() const { return stats_; }
  /// VCD text of the last run (empty unless options.recordVcd was set).
  const std::string& vcd() const { return vcd_; }

 private:
  const hlir::KernelInfo& kernel_;
  const dp::DataPath& dp_;
  const Module& module_;
  SystemOptions opt_;
  SystemStats stats_;
  std::string vcd_;
};

/// Stats-only convenience for metric collection (roccc-explore, benches):
/// clocks `kernel` over `inputs` in the Fig 2 system and returns the run's
/// statistics, discarding the outputs. Throws like System::run.
SystemStats measureSystem(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                          const Module& module, const interp::KernelIO& inputs,
                          const SystemOptions& options = {});

} // namespace roccc::rtl
