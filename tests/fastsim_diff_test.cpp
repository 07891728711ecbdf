// Differential testing: FastSim (the compiled slot-indexed engine) locked
// to NetlistSim (the boxed-Value reference) in cycle lockstep. Every Table 1
// kernel is compiled at unroll factors {1, 2, 4}, then both engines are
// driven with identical seeded random input streams — including patterns a
// real System run would never present — and every net is compared on every
// cycle. Any divergence fails with the cycle and the net name.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "rtl/fastsim.hpp"
#include "rtl/netlist.hpp"
#include "roccc/compiler.hpp"

namespace roccc {
namespace {

/// Drives `batch` reference simulators and one batched FastSim in lockstep
/// for `cycles` cycles of random stimulus, comparing all nets on all lanes.
void diffRun(const rtl::Module& m, uint64_t seed, int cycles, int batch) {
  std::vector<rtl::NetlistSim> refs;
  refs.reserve(static_cast<size_t>(batch));
  for (int l = 0; l < batch; ++l) refs.emplace_back(m);
  rtl::FastSim fast(m, batch);

  std::mt19937_64 rng(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (size_t p = 0; p < m.inputPorts.size(); ++p) {
      const ScalarType t = m.nets[static_cast<size_t>(m.inputPorts[p])].type;
      for (int l = 0; l < batch; ++l) {
        const Value v(t, rng()); // uniform over the port's raw bit patterns
        refs[static_cast<size_t>(l)].setInput(p, v);
        fast.setInput(p, v, l);
      }
    }
    for (auto& r : refs) r.eval();
    fast.eval();
    for (size_t n = 0; n < m.nets.size(); ++n) {
      for (int l = 0; l < batch; ++l) {
        const Value want = refs[static_cast<size_t>(l)].netValue(static_cast<int>(n));
        const Value got = fast.netValue(static_cast<int>(n), l);
        ASSERT_TRUE(want == got)
            << "engines diverge at cycle " << cycle << ", net " << n << " '" << m.nets[n].name
            << "', lane " << l << ": reference=" << want.str() << " fast=" << got.str();
      }
    }
    // Mixed enable pattern: mostly advancing, with occasional stall cycles
    // (identical across lanes, as the System schedules them).
    const bool enable = (rng() % 4) != 0;
    for (auto& r : refs) r.tick(enable);
    fast.tick(enable);
  }
}

struct KernelCase {
  const char* name;
  const char* source;
  double targetNs; ///< 0: default pipeline stage target
};

const KernelCase kTable1Cases[] = {
    {"bit_correlator", bench::kBitCorrelator, 0},
    {"mul_acc", bench::kMulAcc, 0},
    {"mul_acc_predicated", bench::kMulAccPredicated, 0},
    {"udiv", bench::kUdiv, 3.0},
    {"square_root", bench::kSquareRoot, 0},
    {"cos", bench::kCos, 0},
    {"fir", bench::kFir, 0},
    {"dct", bench::kDct, 7.5},
    {"wavelet", bench::kWavelet, 9.0},
};

class FastSimDiff : public ::testing::TestWithParam<int> {};

TEST_P(FastSimDiff, LockstepOnAllTable1Kernels) {
  const int unroll = GetParam();
  for (const KernelCase& kc : kTable1Cases) {
    CompileOptions opt;
    opt.unrollFactor = unroll;
    if (kc.targetNs > 0) opt.dpOptions.targetStageDelayNs = kc.targetNs;
    Compiler c(opt);
    const CompileResult r = c.compileSource(kc.source);
    ASSERT_TRUE(r.ok) << kc.name << " unroll " << unroll << ":\n" << r.diags.dump();
    std::vector<std::string> errors;
    ASSERT_TRUE(r.module.verify(errors)) << kc.name << ": " << errors.front();
    // Batch 1 is the specialised path System and the testbench replay
    // clock; batch 3 is the general lane loop.
    for (const int batch : {1, 3}) {
      diffRun(r.module, /*seed=*/0xD1FF + static_cast<uint64_t>(unroll) * 131 +
                            static_cast<uint64_t>(&kc - kTable1Cases),
              /*cycles=*/48, batch);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "divergence in kernel '" << kc.name << "' at unroll " << unroll << ", batch "
               << batch;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UnrollFactors, FastSimDiff, ::testing::Values(1, 2, 4));

// The width-inference and pipelining knobs reshape the netlist (resize
// chains, pipeline registers); the engines must track through all of them.
TEST(FastSimDiff, LockstepAcrossDatapathKnobs) {
  for (const KernelCase& kc : {kTable1Cases[6] /*fir*/, kTable1Cases[7] /*dct*/}) {
    for (int mode = 0; mode < 3; ++mode) {
      CompileOptions opt;
      if (mode == 1) opt.dpOptions.widthMode = dp::BuildOptions::WidthMode::Declared;
      if (mode == 2) opt.dpOptions.pipeline = false;
      Compiler c(opt);
      const CompileResult r = c.compileSource(kc.source);
      ASSERT_TRUE(r.ok) << kc.name << " mode " << mode;
      for (const int batch : {1, 2}) {
        diffRun(r.module, /*seed=*/977 * static_cast<uint64_t>(mode + 1), /*cycles=*/32, batch);
      }
    }
  }
}

// Batching is not allowed to bleed state between lanes: a lane fed all-zero
// inputs must behave exactly like a batch-1 simulation fed all zeros, even
// when its neighbor lanes carry random traffic.
TEST(FastSimDiff, LanesAreIndependent) {
  Compiler c;
  const CompileResult r = c.compileSource(bench::kFir);
  ASSERT_TRUE(r.ok);
  const rtl::Module& m = r.module;

  rtl::FastSim solo(m, 1);
  rtl::FastSim batched(m, 4);
  std::mt19937_64 rng(42);
  for (int cycle = 0; cycle < 64; ++cycle) {
    for (size_t p = 0; p < m.inputPorts.size(); ++p) {
      const ScalarType t = m.nets[static_cast<size_t>(m.inputPorts[p])].type;
      solo.setInput(p, Value(t, 0));
      batched.setInput(p, Value(t, 0), 2); // the quiet lane
      for (int l : {0, 1, 3}) batched.setInput(p, Value(t, rng()), l);
    }
    solo.eval();
    batched.eval();
    for (size_t o = 0; o < m.outputPorts.size(); ++o) {
      ASSERT_TRUE(solo.output(o) == batched.output(o, 2))
          << "cycle " << cycle << " output " << o;
    }
    solo.tick(true);
    batched.tick(true);
  }
}

} // namespace
} // namespace roccc
