// Integration tests over the exact Table 1 workloads (bench/kernels.hpp):
// every kernel must compile, emit valid VHDL, and run cycle-accurately to
// the same results as the software interpreter. These pin the headline
// reproduction end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "../bench/kernels.hpp"
#include "roccc/verify.hpp"
#include "support/cosrom.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vhdl/check.hpp"

namespace roccc {
namespace {

CompileResult compile(const char* src, CompileOptions opt = {}) {
  Compiler c(opt);
  CompileResult r = c.compileSource(src);
  EXPECT_TRUE(r.ok) << r.diags.dump();
  if (r.ok) {
    std::vector<std::string> errors;
    EXPECT_TRUE(r.module.verify(errors)) << "module verify: " << join(errors, "\n");
  }
  return r;
}

void checkVhdl(const CompileResult& r) {
  const auto chk = vhdl::checkDesign(r.vhdl);
  EXPECT_TRUE(chk.ok) << join(chk.problems, "\n");
}

/// All five engines on `in` against the interpreter, in a Fig 2 system of
/// geometry `sys`.
KernelVerdict verifyOn(const CompileResult& r, const char* src, const interp::KernelIO& in,
                       rtl::SystemOptions sys = {}) {
  VerifyOptions vo;
  vo.system = sys;
  return verifyKernel(r.kernel.kernelName, src, r, in, vo);
}

void expectCosim(const char* src, const interp::KernelIO& in, CompileOptions opt = {},
                 rtl::SystemOptions sys = {}) {
  CompileResult r = compile(src, opt);
  ASSERT_TRUE(r.ok);
  checkVhdl(r);
  const KernelVerdict v = verifyOn(r, src, in, sys);
  EXPECT_TRUE(v.agree) << v.firstProblem();
}

SplitMix64 rng(20050307); // DATE'05 :-)

std::vector<int64_t> randomArray(size_t n, ScalarType t) {
  std::vector<int64_t> v;
  for (size_t i = 0; i < n; ++i) v.push_back(rng.inRange(t.minValue(), t.maxValue()));
  return v;
}

TEST(Table1Kernels, BitCorrelator) {
  interp::KernelIO in;
  in.arrays["A"] = randomArray(64, ScalarType::make(8, false));
  expectCosim(bench::kBitCorrelator, in);
}

TEST(Table1Kernels, MulAccBothStyles) {
  for (const char* src : {bench::kMulAcc, bench::kMulAccPredicated}) {
    for (int nd : {0, 1}) {
      interp::KernelIO in;
      in.scalars["nd"] = nd;
      in.arrays["A"] = randomArray(64, ScalarType::make(12, true));
      in.arrays["B"] = randomArray(64, ScalarType::make(12, true));
      expectCosim(src, in);
    }
  }
}

TEST(Table1Kernels, Udiv) {
  interp::KernelIO in;
  in.arrays["N"] = randomArray(64, ScalarType::make(8, false));
  in.arrays["D"] = randomArray(64, ScalarType::make(8, false));
  in.arrays["D"][7] = 0; // exercise the divide-by-zero convention
  expectCosim(bench::kUdiv, in);
}

TEST(Table1Kernels, UdivAggressivelyPipelined) {
  CompileOptions opt;
  opt.dpOptions.targetStageDelayNs = 3.0; // the bench_table1 operating point
  interp::KernelIO in;
  in.arrays["N"] = randomArray(64, ScalarType::make(8, false));
  in.arrays["D"] = randomArray(64, ScalarType::make(8, false));
  expectCosim(bench::kUdiv, in, opt);
}

TEST(Table1Kernels, SquareRoot) {
  interp::KernelIO in;
  in.arrays["X"] = randomArray(64, ScalarType::make(24, false));
  in.arrays["X"][0] = 0;
  in.arrays["X"][1] = (1 << 24) - 1;
  in.arrays["X"][2] = 1;
  CompileResult r = compile(bench::kSquareRoot);
  const KernelVerdict v = verifyOn(r, bench::kSquareRoot, in);
  ASSERT_TRUE(v.agree) << v.firstProblem();
  // And the math is actually an integer square root.
  for (int i = 0; i < 64; ++i) {
    const int64_t x = in.arrays["X"][static_cast<size_t>(i)];
    const auto isq = static_cast<int64_t>(std::sqrt(static_cast<double>(x)));
    EXPECT_EQ(v.outputs.arrays.at("R")[static_cast<size_t>(i)], isq) << "x=" << x;
  }
}

TEST(Table1Kernels, CosKernelMatchesRom) {
  interp::KernelIO in;
  in.arrays["P"] = randomArray(64, ScalarType::make(10, false));
  CompileResult r = compile(bench::kCos);
  const KernelVerdict v = verifyOn(r, bench::kCos, in);
  ASSERT_TRUE(v.agree) << v.firstProblem();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(v.outputs.arrays.at("C")[static_cast<size_t>(i)],
              cosRomEntry(static_cast<int>(in.arrays["P"][static_cast<size_t>(i)]), false));
  }
}

TEST(Table1Kernels, Fir) {
  interp::KernelIO in;
  in.arrays["A"] = randomArray(68, ScalarType::make(8, true));
  expectCosim(bench::kFir, in);
}

// Constants are folded when the data path is built: the CSD expansion of
// fir's constant multiplies reads one Ldc per shift amount, and the
// multiplier constants it replaced are gone. So every Const cell of the
// module is read, and no two carry the same value and type.
TEST(Table1Kernels, FirModuleHasOneConstCellPerLiveConstant) {
  const CompileResult r = compile(bench::kFir);
  ASSERT_TRUE(r.ok);
  std::vector<int> readers(r.module.nets.size(), 0);
  for (const auto& c : r.module.cells) {
    for (int n : c.inputs) ++readers[static_cast<size_t>(n)];
  }
  for (int n : r.module.outputPorts) ++readers[static_cast<size_t>(n)];
  std::set<std::tuple<int64_t, int, bool>> distinct;
  int consts = 0;
  for (const auto& c : r.module.cells) {
    if (c.kind != rtl::CellKind::Const) continue;
    ++consts;
    const ScalarType t = r.module.nets[static_cast<size_t>(c.output)].type;
    EXPECT_GT(readers[static_cast<size_t>(c.output)], 0) << "unread constant " << c.imm;
    EXPECT_TRUE(distinct.emplace(c.imm, t.width, t.isSigned).second)
        << "repeated constant " << c.imm << " of type " << t.str();
  }
  EXPECT_GT(consts, 0);
}

TEST(Table1Kernels, DctPaperOperatingPoint) {
  CompileOptions opt;
  opt.dpOptions.targetStageDelayNs = 7.5;
  interp::KernelIO in;
  in.arrays["X"] = randomArray(64, ScalarType::make(8, true));
  rtl::SystemOptions sys;
  sys.inputBusElems = 8;
  expectCosim(bench::kDct, in, opt, sys);
}

TEST(Table1Kernels, DctIsActuallyADct) {
  // Cross-check the kernel's integer DCT against a floating-point DCT-II.
  interp::KernelIO in;
  in.arrays["X"] = randomArray(64, ScalarType::make(8, true));
  CompileResult r = compile(bench::kDct);
  const KernelVerdict v = verifyOn(r, bench::kDct, in);
  ASSERT_TRUE(v.agree) << v.firstProblem();
  for (int blk = 0; blk < 8; ++blk) {
    for (int k = 0; k < 8; ++k) {
      double ref = 0;
      for (int n = 0; n < 8; ++n) {
        ref += static_cast<double>(in.arrays["X"][static_cast<size_t>(blk * 8 + n)]) *
               std::cos((2 * n + 1) * k * M_PI / 16.0);
      }
      if (k == 0) ref *= M_SQRT1_2; // the kernel's 724/1024 DC normalization
      const double got = static_cast<double>(v.outputs.arrays.at("Y")[static_cast<size_t>(blk * 8 + k)]);
      // >>10 truncation across four summed terms gives a few LSBs of bias.
      EXPECT_NEAR(got, ref, 6.0) << "block " << blk << " coefficient " << k;
    }
  }
}

TEST(Table1Kernels, Wavelet2D) {
  interp::KernelIO in;
  in.arrays["X"] = randomArray(68 * 66, ScalarType::make(16, true));
  CompileOptions opt;
  opt.dpOptions.targetStageDelayNs = 9.0;
  expectCosim(bench::kWavelet, in, opt);
}

TEST(Table1Kernels, WaveletReconstruction) {
  // The (5,3)-style outputs obey the lifting relations the kernel encodes.
  interp::KernelIO in;
  in.arrays["X"] = randomArray(68 * 66, ScalarType::make(12, true));
  CompileResult r = compile(bench::kWavelet);
  const KernelVerdict v = verifyOn(r, bench::kWavelet, in);
  ASSERT_TRUE(v.agree) << v.firstProblem();
  const auto& x = in.arrays["X"];
  const auto& d = v.outputs.arrays.at("D");
  auto X = [&](int i, int j) { return x[static_cast<size_t>(i * 66 + j)]; };
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const int64_t p1 = static_cast<int16_t>(X(i + 2, j + 1) - ((X(i + 2, j) + X(i + 2, j + 2)) >> 1));
      EXPECT_EQ(d[static_cast<size_t>(i * 64 + j)], p1);
    }
  }
}

// Regression: the fuzz-found feedback-fill bug — a conditional accumulator
// whose untaken arm is a nonzero constant must not leak fill garbage into
// the feedback register.
TEST(Table1Kernels, FeedbackRegisterImmuneToPipelineFill) {
  const char* src = R"(
    int32 s = 0;
    void k(const int12 A[10], int32 C[10]) {
      int i;
      int32 t;
      for (i = 0; i < 10; i++) {
        if (A[i] < 14) { t = A[i] * 3; } else { t = -27; }
        s = s + t;
        C[i] = s;
      }
    }
  )";
  interp::KernelIO in;
  in.arrays["A"] = randomArray(10, ScalarType::make(12, true));
  expectCosim(src, in);
}

} // namespace
} // namespace roccc
