#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "dp/annotate.hpp"
#include "roccc/verify.hpp"
#include "support/strings.hpp"
#include "vhdl/check.hpp"

// Counts heap allocations so a test can show that the engine-1 step makes
// none after its first call.
namespace {
std::atomic<long> g_allocations{0};
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
} // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace roccc {
namespace {

CompileResult compile(const std::string& src, CompileOptions opt = {}) {
  Compiler c(opt);
  CompileResult r = c.compileSource(src);
  EXPECT_TRUE(r.ok) << r.diags.dump();
  if (r.ok) {
    std::vector<std::string> errors;
    EXPECT_TRUE(r.module.verify(errors)) << "module verify: " << join(errors, "\n");
  }
  return r;
}

/// All five engines on `in` against the interpreter, in a Fig 2 system of
/// geometry `sys`.
KernelVerdict verifyOn(const CompileResult& r, const std::string& src,
                       const interp::KernelIO& in, rtl::SystemOptions sys = {}) {
  VerifyOptions vo;
  vo.system = sys;
  return verifyKernel(r.kernel.kernelName, src, r, in, vo);
}

void expectCosim(const std::string& src, const interp::KernelIO& in, CompileOptions opt = {},
                 rtl::SystemOptions sys = {}) {
  CompileResult r = compile(src, opt);
  ASSERT_TRUE(r.ok);
  const KernelVerdict v = verifyOn(r, src, in, sys);
  EXPECT_TRUE(v.agree) << v.firstProblem() << "\n" << r.datapath.dump();
}

const char* kFirSrc = R"(
  void fir(const int16 A[36], int16 C[32]) {
    int i;
    for (i = 0; i < 32; i = i + 1) {
      C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
    }
  }
)";

interp::KernelIO firInput() {
  interp::KernelIO in;
  for (int i = 0; i < 36; ++i) in.arrays["A"].push_back((i * 73) % 251 - 125);
  return in;
}

TEST(System, FivetapFirCosim) { expectCosim(kFirSrc, firInput()); }

TEST(System, FirThroughputIsOnePerCycleAfterFill) {
  CompileResult r = compile(kFirSrc);
  rtl::System sys(r.kernel, r.datapath, r.module);
  sys.run(firInput());
  const auto& st = sys.stats();
  // 32 iterations; fill = 5-element window + pipeline depth. Total cycles
  // should be iterations + fill overhead, comfortably under 2x iterations.
  EXPECT_EQ(st.iterations, 32);
  EXPECT_LT(st.cycles, 32 + 5 + st.pipelineStages + 8) << "cycles " << st.cycles;
  // Smart buffer fetched each element exactly once.
  EXPECT_EQ(st.bramReads, 36);
}

TEST(System, AccumulatorCosim) {
  const char* src = R"(
    int sum = 0;
    void acc(const int32 A[32], int32* out) {
      int i;
      for (i = 0; i < 32; i++) {
        sum = sum + A[i];
      }
      *out = sum;
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 32; ++i) in.arrays["A"].push_back(i * 11 - 160);
  expectCosim(src, in);
}

TEST(System, InterpreterStepAllocatesNothingAfterItsFirstCall) {
  // Engine 1 calls the step once per loop iteration and threads feedback
  // the way traceStreamingModel does; only the first call may allocate.
  CompileResult r = compile(R"(
    int sum = 0;
    void acc(const int16 A[8], int16 C[8]) {
      int i;
      for (i = 0; i < 8; i++) {
        sum = sum + A[i];
        C[i] = sum >> 1;
      }
    }
  )");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.datapath.feedbacks.size(), 1u);
  interp::Interpreter sim(r.kernel.dpModule);
  const rtl::StreamStep step = rtl::interpreterStep(r.kernel, r.datapath, sim);
  std::vector<Value> inputs;
  for (const auto& port : r.datapath.inputs) inputs.push_back(Value::fromInt(port.type, 3));
  std::map<std::string, Value> feedback;
  for (const auto& fb : r.kernel.feedbacks) feedback[fb.name] = Value::fromInt(fb.type, fb.initial);
  std::vector<Value> outputs;
  feedback = step(inputs, feedback, outputs);
  const long before = g_allocations.load();
  for (int t = 1; t < 32; ++t) feedback = step(inputs, feedback, outputs);
  const long made = g_allocations.load() - before;
  EXPECT_EQ(made, 0);
  EXPECT_EQ(feedback.begin()->second.toInt(), 32 * 3);
}

TEST(System, MulAccWithConditionCosim) {
  const char* src = R"(
    int32 acc = 0;
    void mul_acc(const int12 A[16], const int12 B[16], uint1 nd, int32* out) {
      int i;
      for (i = 0; i < 16; i++) {
        if (nd) {
          acc = acc + A[i] * B[i];
        }
      }
      *out = acc;
    }
  )";
  for (int nd = 0; nd <= 1; ++nd) {
    interp::KernelIO in;
    in.scalars["nd"] = nd;
    for (int i = 0; i < 16; ++i) {
      in.arrays["A"].push_back((i * 7) % 100 - 50);
      in.arrays["B"].push_back((i * 13) % 80 - 40);
    }
    expectCosim(src, in);
  }
}

TEST(System, BranchInLoopCosim) {
  const char* src = R"(
    void clip(const int16 A[24], int16 C[24]) {
      int i;
      for (i = 0; i < 24; i++) {
        if (A[i] < 0) {
          C[i] = -A[i];
        } else {
          C[i] = A[i] * 2;
        }
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 24; ++i) in.arrays["A"].push_back(100 - i * 9);
  expectCosim(src, in);
}

TEST(System, DctBlockCosimAndThroughput) {
  // 8 outputs per iteration at stride 8: the paper's DCT shape. With an
  // 8-element input bus the system sustains 8 outputs per clock.
  const char* src = R"(
    void stage(const int8 X[64], int19 Y[64]) {
      int i;
      for (i = 0; i < 8; i++) {
        Y[8*i]   = X[8*i] + X[8*i+7];
        Y[8*i+1] = X[8*i+1] + X[8*i+6];
        Y[8*i+2] = X[8*i+2] + X[8*i+5];
        Y[8*i+3] = X[8*i+3] + X[8*i+4];
        Y[8*i+4] = X[8*i] - X[8*i+7];
        Y[8*i+5] = X[8*i+1] - X[8*i+6];
        Y[8*i+6] = X[8*i+2] - X[8*i+5];
        Y[8*i+7] = X[8*i+3] - X[8*i+4];
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 64; ++i) in.arrays["X"].push_back((i * 37) % 256 - 128);
  rtl::SystemOptions sys;
  sys.inputBusElems = 8;
  const CompileResult r = compile(src);
  const KernelVerdict v = verifyOn(r, src, in, sys);
  EXPECT_TRUE(v.agree) << v.firstProblem();
  EXPECT_GE(v.stats.steadyStateThroughput(), 7.0) << "outputs/clock";
}

TEST(System, TwoDimensionalStencilCosim) {
  const char* src = R"(
    void stencil(const int16 X[6][8], int16 Y[5][6]) {
      int i;
      int j;
      for (i = 0; i < 5; i++) {
        for (j = 0; j < 6; j++) {
          Y[i][j] = X[i][j] + X[i][j+1] + X[i][j+2]
                  + X[i+1][j] + X[i+1][j+1] + X[i+1][j+2];
        }
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 48; ++i) in.arrays["X"].push_back((i * 29) % 211 - 105);
  expectCosim(src, in);
}

TEST(System, UnsignedDividerCosim) {
  const char* src = R"(
    void udiv(const uint8 N[16], const uint8 D[16], uint8 Q[16]) {
      int i;
      for (i = 0; i < 16; i++) {
        Q[i] = N[i] / D[i];
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 16; ++i) {
    in.arrays["N"].push_back((i * 97) % 256);
    in.arrays["D"].push_back(i == 5 ? 0 : (i * 31) % 256); // include /0
  }
  expectCosim(src, in);
}

TEST(System, InnerLoopFullUnrollBitCorrelator) {
  // bit_correlator: inner per-bit loop fully unrolled by the compiler.
  const char* src = R"(
    void bit_correlator(const uint8 A[32], uint4 C[32]) {
      int i;
      int j;
      int cnt;
      for (i = 0; i < 32; i++) {
        cnt = 0;
        for (j = 0; j < 8; j++) {
          if (((A[i] >> j) & 1) == ((181 >> j) & 1)) {
            cnt = cnt + 1;
          }
        }
        C[i] = cnt;
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 32; ++i) in.arrays["A"].push_back((i * 41) % 256);
  expectCosim(src, in);
}

TEST(System, PartialUnrollWidensThroughput) {
  CompileOptions opt;
  opt.unrollFactor = 4;
  interp::KernelIO in = firInput();
  expectCosim(kFirSrc, in, opt, [] {
    rtl::SystemOptions s;
    s.inputBusElems = 4;
    return s;
  }());
  CompileResult r = compile(kFirSrc, opt);
  EXPECT_EQ(r.kernel.outputs[0].accessCount(), 4); // 4 results per iteration
}

TEST(System, NaiveBufferMatchesButReadsMore) {
  CompileResult r = compile(kFirSrc);
  const interp::KernelIO in = firInput();

  const KernelVerdict smart = verifyOn(r, kFirSrc, in);
  rtl::SystemOptions naiveSystem;
  naiveSystem.useSmartBuffer = false;
  const KernelVerdict naive = verifyOn(r, kFirSrc, in, naiveSystem);

  EXPECT_TRUE(smart.agree) << smart.firstProblem();
  EXPECT_TRUE(naive.agree) << naive.firstProblem();
  // Smart buffer: 36 reads. Naive: 5 per window * 32 windows = 160.
  EXPECT_EQ(smart.stats.bramReads, 36);
  EXPECT_EQ(naive.stats.bramReads, 160);
  EXPECT_GT(naive.stats.cycles, smart.stats.cycles);
}

TEST(System, CosLookupKernel) {
  const char* src = R"(
    void wave(const uint10 P[16], int16 C[16]) {
      int i;
      for (i = 0; i < 16; i++) {
        C[i] = ROCCC_cos(P[i]);
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 16; ++i) in.arrays["P"].push_back(i * 64);
  expectCosim(src, in);
}

TEST(System, LookupTableKernel) {
  const char* src = R"(
    const int16 GAMMA[16] = {0,1,4,9,16,25,36,49,64,81,100,121,144,169,196,225};
    void apply(const uint4 A[12], int16 C[12]) {
      int i;
      for (i = 0; i < 12; i++) {
        C[i] = GAMMA[A[i]];
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 12; ++i) in.arrays["A"].push_back(15 - i);
  expectCosim(src, in);
}

TEST(System, CallInliningInKernel) {
  const char* src = R"(
    void sq(int16 x, int32* r) { *r = x * x; }
    void k(const int16 A[10], int32 C[10]) {
      int i;
      int32 t;
      for (i = 0; i < 10; i++) {
        t = 0;
        sq(A[i], t);
        C[i] = t + 1;
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 10; ++i) in.arrays["A"].push_back(i * 50 - 250);
  CompileOptions opt;
  opt.kernelName = "k";
  expectCosim(src, in, opt);
}

TEST(System, DualTwoDimensionalStreamsCosim) {
  // Two 2-D input streams through separate line-buffered smart buffers
  // (the motion-detection shape).
  const char* src = R"(
    void diff(const uint8 P[6][8], const uint8 C[6][8], int16 D[4][6]) {
      int i;
      int j;
      for (i = 0; i < 4; i++) {
        for (j = 0; j < 6; j++) {
          D[i][j] = (C[i+1][j+1] - P[i+1][j+1]) + (C[i][j] - P[i+2][j+2]);
        }
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 48; ++i) {
    in.arrays["P"].push_back((i * 31) % 256);
    in.arrays["C"].push_back((i * 57 + 13) % 256);
  }
  expectCosim(src, in);
}

TEST(System, AutoUnrollBudgetPicksFactorAndStaysCorrect) {
  CompileOptions opt;
  opt.autoUnrollSliceBudget = 12000;
  CompileResult r = compile(kFirSrc, opt);
  // The estimator picks a factor > 1 within this budget.
  EXPECT_GT(r.kernel.outputs[0].accessCount(), 1);
  interp::KernelIO in = firInput();
  rtl::SystemOptions sys;
  sys.inputBusElems = r.kernel.outputs[0].accessCount();
  const KernelVerdict v = verifyOn(r, kFirSrc, in, sys);
  EXPECT_TRUE(v.agree) << v.firstProblem();
}

TEST(System, AutoUnrollTinyBudgetKeepsFactorOne) {
  CompileOptions opt;
  opt.autoUnrollSliceBudget = 10; // nothing fits: factor stays 1
  CompileResult r = compile(kFirSrc, opt);
  EXPECT_EQ(r.kernel.outputs[0].accessCount(), 1);
}

// The search reads the trip count of the loop the unroll pass widens: the
// inner j loop (6 trips), not the outer i loop (16). A budget that fits
// every probe stops at 2, the last power of two dividing 6.
TEST(System, AutoUnrollReadsTheUnrolledLoopsTripCount) {
  const char* src = R"(
    void k2d(const uint8 P[16][6], uint8 B[16][6]) {
      int i;
      int j;
      for (i = 0; i < 16; i = i + 1) {
        for (j = 0; j < 6; j = j + 1) {
          B[i][j] = P[i][j] + 1;
        }
      }
    }
  )";
  CompileOptions opt;
  opt.autoUnrollSliceBudget = 100000;
  const CompileResult r = compile(src, opt);
  ASSERT_TRUE(r.ok);
  const auto unroll = std::find_if(r.passLog.begin(), r.passLog.end(),
                                   [](const PassStatistics& p) { return p.name == "unroll"; });
  ASSERT_NE(unroll, r.passLog.end());
  EXPECT_EQ(unroll->counter("unroll-factor"), 2);
  interp::KernelIO in;
  for (int i = 0; i < 96; ++i) in.arrays["P"].push_back((i * 37) % 256);
  const KernelVerdict v = verifyOn(r, src, in);
  EXPECT_TRUE(v.agree) << v.firstProblem();
}

// x·3 in the remainder's multiply-back is (x << 2) - x: the data path
// holds no Neg.
TEST(System, RemainderByThreeNeedsNoNeg) {
  const char* src = R"(
    void rem3(const uint8 A[16], uint8 C[16]) {
      int i;
      for (i = 0; i < 16; i = i + 1) {
        C[i] = A[i] % 3;
      }
    }
  )";
  const CompileResult r = compile(src);
  ASSERT_TRUE(r.ok);
  const json::Value exported = dp::exportJson(r.datapath);
  int negs = 0;
  for (const json::Value& op : exported.find("ops")->items()) {
    negs += op.find("op")->asString() == "neg";
  }
  EXPECT_EQ(negs, 0);
  interp::KernelIO in;
  for (int i = 0; i < 16; ++i) in.arrays["A"].push_back(i * 17);
  expectCosim(src, in);
}

// --- VHDL output ----------------------------------------------------------------

TEST(Vhdl, GeneratedDesignIsStructurallyValid) {
  for (const char* src : {kFirSrc}) {
    CompileResult r = compile(src);
    ASSERT_FALSE(r.vhdl.empty());
    const vhdl::CheckResult chk = vhdl::checkDesign(r.vhdl);
    EXPECT_TRUE(chk.ok) << join(chk.problems, "\n") << "\n---\n" << r.vhdl;
    // One entity per node plus the top (plus ROMs when present).
    EXPECT_GE(chk.entityCount, static_cast<int>(r.datapath.nodes.size()) + 1);
    EXPECT_EQ(chk.entityCount, chk.architectureCount);
    EXPECT_GE(chk.instantiationCount, static_cast<int>(r.datapath.nodes.size()));
  }
}

TEST(Vhdl, AllPaperKernelsEmitValidVhdl) {
  const char* kernels[] = {
      R"(int sum = 0;
         void acc(const int32 A[8], int32* out) {
           int i;
           for (i = 0; i < 8; i++) { sum = sum + A[i]; }
           *out = sum;
         })",
      R"(void clip(const int16 A[8], int16 C[8]) {
           int i;
           for (i = 0; i < 8; i++) {
             if (A[i] < 0) { C[i] = -A[i]; } else { C[i] = A[i]; }
           }
         })",
      R"(const int16 T[8] = {1,2,3,4,5,6,7,8};
         void lk(const uint3 A[8], int16 C[8]) {
           int i;
           for (i = 0; i < 8; i++) { C[i] = T[A[i]]; }
         })",
  };
  for (const char* src : kernels) {
    CompileResult r = compile(src);
    const vhdl::CheckResult chk = vhdl::checkDesign(r.vhdl);
    EXPECT_TRUE(chk.ok) << join(chk.problems, "\n") << "\n---\n" << r.vhdl;
  }
}

TEST(Vhdl, MentionsKeyConstructs) {
  CompileResult r = compile(kFirSrc);
  EXPECT_NE(r.vhdl.find("rising_edge(clk)"), std::string::npos);
  EXPECT_NE(r.vhdl.find("use ieee.numeric_std.all;"), std::string::npos);
  EXPECT_NE(r.vhdl.find("entity fir_dp is"), std::string::npos);
}

TEST(Vhdl, ValidatorCatchesBrokenDesigns) {
  const vhdl::CheckResult bad1 = vhdl::checkDesign("entity a is\nport (x : in bit);\nend entity b;");
  EXPECT_FALSE(bad1.ok);
  const vhdl::CheckResult bad2 = vhdl::checkDesign(R"(
    library ieee;
    entity a is
    end entity a;
    architecture rtl of a is
    begin
      y <= x;
    end architecture;
  )");
  EXPECT_FALSE(bad2.ok); // y undeclared
}

// --- compiler-level reporting -----------------------------------------------------

TEST(CompilerFacade, PassLogAndTransformedSource) {
  // The transformed source is the `unroll` pass's snapshot
  // (--print-after unroll).
  CompileOptions opt;
  opt.pipeline.printAfter = {"unroll"};
  CompileResult r = compile(kFirSrc, opt);
  const auto unroll = std::find_if(r.passLog.begin(), r.passLog.end(),
                                   [](const PassStatistics& p) { return p.name == "unroll"; });
  ASSERT_NE(unroll, r.passLog.end());
  EXPECT_NE(unroll->snapshot.find("void fir"), std::string::npos);
  EXPECT_FALSE(r.kernel.scalarReplacedText.empty());
}

TEST(CompilerFacade, ReportsErrorsOnBadKernels) {
  Compiler c;
  const CompileResult r = c.compileSource("void k(int* o) { *o = 1; }"); // no loop
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.diags.hasErrors());
}

} // namespace
} // namespace roccc
