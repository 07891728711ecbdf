// Reproduces the paper's DCT throughput claim (section 5): "The throughput
// of Xilinx DCT IP is one output data per clock cycle, while ROCCC's
// throughput is eight output data per clock cycle. Therefore, though
// ROCCC-generated DCT runs at a lower speed (73.5%), the overall throughput
// of ROCCC-generated circuit is higher."
#include <chrono>
#include <cstdio>

#include "roccc/verify.hpp"
#include "table1.hpp"

int main() {
  using namespace roccc;
  const CompileResult r = bench::compileTable1Kernel("dct"); // the paper's DCT operating point

  interp::KernelIO in;
  for (int i = 0; i < 64; ++i) in.arrays["X"].push_back((i * 37) % 256 - 128);

  // Every engine against the interpreter; the statistics come from the
  // verdict's FastSim run of the Fig 2 system.
  VerifyOptions vo;
  vo.system.inputBusElems = 8; // 64-bit bus: a full 8-sample block per clock
  const KernelVerdict v = verifyKernel("dct", bench::kDct, r, in, vo);
  const auto& st = v.stats;

  const auto rocccRep = synth::estimate(r.module);
  const auto ipRep = synth::estimate(ip::buildDct8());

  const double rocccThroughput = st.steadyStateThroughput() * rocccRep.fmaxMHz();
  const double ipThroughput = 1.0 * ipRep.fmaxMHz();

  std::printf("DCT throughput comparison (8-point 1-D DCT):\n\n");
  std::printf("  %-22s | %12s | %16s | %18s\n", "", "clock (MHz)", "outputs / clock",
              "Msamples / second");
  std::printf("  -----------------------+--------------+------------------+------------------\n");
  std::printf("  %-22s | %12.0f | %16.2f | %18.1f\n", "Xilinx-IP-style (DA)", ipRep.fmaxMHz(), 1.0,
              ipThroughput);
  std::printf("  %-22s | %12.0f | %16.2f | %18.1f\n", "ROCCC-generated", rocccRep.fmaxMHz(),
              st.steadyStateThroughput(), rocccThroughput);
  std::printf("\n  clock ratio ROCCC/IP: %.3f (paper: 0.735)\n",
              rocccRep.fmaxMHz() / ipRep.fmaxMHz());
  std::printf("  throughput ratio    : %.2fx in ROCCC's favor (paper: ~5.9x from 8 x 0.735)\n",
              rocccThroughput / ipThroughput);
  std::printf("\n  cycle-accurate run: %lld cycles, %lld output elements, %.2f outputs/clock\n",
              static_cast<long long>(st.cycles), static_cast<long long>(st.outputElems),
              st.steadyStateThroughput());

  std::printf("  verification vs software (%d engines): %s\n", v.enginesRun,
              v.agree ? "MATCH" : ("MISMATCH (" + v.firstProblem() + ")").c_str());

  // Simulation-side throughput: the same run on the reference netlist
  // interpreter vs the compiled fast engine (the default). Both engines'
  // outputs were checked in the verdict above.
  auto timeEngine = [&](rtl::SimEngine engine) {
    rtl::SystemOptions eo = vo.system;
    eo.engine = engine;
    const int reps = 20;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      rtl::System s(r.kernel, r.datapath, r.module, eo);
      s.run(in);
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
  };
  const double refMs = timeEngine(rtl::SimEngine::Reference);
  const double fastMs = timeEngine(rtl::SimEngine::Fast);
  std::printf("  netlist engine: reference %.3f ms/run, fast %.3f ms/run (%.1fx)\n", refMs, fastMs,
              refMs / fastMs);
  return v.agree ? 0 : 1;
}
