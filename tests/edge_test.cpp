// Edge and failure-injection paths across the stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "interp/interp.hpp"
#include "roccc/verify.hpp"
#include "synth/estimate.hpp"

namespace roccc {
namespace {

const char* kFir = R"(
  void fir(const int16 A[36], int16 C[32]) {
    int i;
    for (i = 0; i < 32; i = i + 1) {
      C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
    }
  }
)";

TEST(Edge, SystemRejectsUnboundArrays) {
  Compiler c;
  const CompileResult r = c.compileSource(kFir);
  ASSERT_TRUE(r.ok);
  rtl::System sys(r.kernel, r.datapath, r.module);
  interp::KernelIO empty;
  EXPECT_THROW(sys.run(empty), std::runtime_error);
}

TEST(Edge, SystemRejectsWrongArraySize) {
  Compiler c;
  const CompileResult r = c.compileSource(kFir);
  rtl::System sys(r.kernel, r.datapath, r.module);
  interp::KernelIO in;
  in.arrays["A"].assign(10, 0); // expects 36
  EXPECT_THROW(sys.run(in), std::runtime_error);
}

TEST(Edge, SystemCycleLimitTriggers) {
  Compiler c;
  const CompileResult r = c.compileSource(kFir);
  rtl::SystemOptions opt;
  opt.cycleLimit = 3; // cannot finish 32 iterations
  rtl::System sys(r.kernel, r.datapath, r.module, opt);
  interp::KernelIO in;
  in.arrays["A"].assign(36, 1);
  EXPECT_THROW(sys.run(in), std::runtime_error);
}

TEST(Edge, CompilerRejectsNonDividingUnroll) {
  CompileOptions opt;
  opt.unrollFactor = 3; // 32 % 3 != 0
  Compiler c(opt);
  const CompileResult r = c.compileSource(kFir);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.diags.dump().find("divisible"), std::string::npos);
}

TEST(Edge, CompilerRejectsUnknownKernelName) {
  CompileOptions opt;
  opt.kernelName = "nope";
  Compiler c(opt);
  EXPECT_FALSE(c.compileSource(kFir).ok);
}

TEST(Edge, CompilerRejectsEmptyModule) {
  Compiler c;
  EXPECT_FALSE(c.compileSource("const int16 T[2] = {1,2};").ok);
}

TEST(Edge, ArrayArgumentsToCallsRejectedBySema) {
  DiagEngine d;
  ast::Module m = ast::parse(R"(
    void helper(const int8 B[4], int* o) { *o = B[0]; }
    void k(const int8 A[4], int* o) { helper(A, o); }
  )", d);
  ASSERT_FALSE(d.hasErrors()) << d.dump();
  EXPECT_FALSE(ast::analyze(m, d)); // arrays cannot be passed to calls
  EXPECT_NE(d.dump().find("used as a scalar"), std::string::npos) << d.dump();
}

TEST(Edge, MemorySubsystemScalesWithBufferAndStreams) {
  const auto small = synth::memorySubsystemResources(/*bufferBits=*/128, 1, 1);
  const auto big = synth::memorySubsystemResources(/*bufferBits=*/4096, 3, 3);
  EXPECT_GT(big.ff, small.ff);
  EXPECT_GT(big.lut4, small.lut4);
  EXPECT_EQ(small.ff, 128 + 20 + 12 + 16);
}

TEST(Edge, CosimReportsMismatchWhenModelsDiverge) {
  // Compile one kernel but verify it against a *different* reference
  // source, with the engines `roccc-cc --cosim` runs: the verdict must
  // flag the divergence, with its engine, port and index, rather than
  // crash.
  Compiler c;
  const CompileResult r = c.compileSource(kFir);
  const char* wrongRef = R"(
    void fir(const int16 A[36], int16 C[32]) {
      int i;
      for (i = 0; i < 32; i = i + 1) {
        C[i] = A[i];
      }
    }
  )";
  interp::KernelIO in;
  for (int i = 0; i < 36; ++i) in.arrays["A"].push_back(i + 1);
  VerifyOptions opt;
  opt.engineMask = 1u << static_cast<int>(VerifyEngine::FastSim);
  const KernelVerdict v = verifyKernel("fir", wrongRef, r, in, opt);
  EXPECT_FALSE(v.agree);
  const auto ce = std::find_if(v.disagreements.begin(), v.disagreements.end(),
                               [](const Counterexample& c) { return c.engine == VerifyEngine::FastSim; });
  ASSERT_NE(ce, v.disagreements.end()) << v.firstProblem();
  EXPECT_EQ(ce->port, "C");
  EXPECT_EQ(ce->index, 0); // C[0] = 65 in hardware, A[0] = 1 in the reference
  EXPECT_EQ(ce->expected, "1");
  EXPECT_EQ(ce->got, "65");
}

TEST(Edge, ZeroTripKernelRejected) {
  Compiler c;
  const CompileResult r = c.compileSource(R"(
    void k(const int8 A[4], int8 C[4]) {
      int i;
      for (i = 4; i < 4; i++) { C[i] = A[i]; }
    }
  )");
  EXPECT_FALSE(r.ok); // trip count 0: bounds are constant but empty
}

TEST(Edge, SingleIterationKernelWorks) {
  const char* src = R"(
    void k(const int8 A[4], int32* out) {
      int i;
      for (i = 0; i < 1; i++) {
        *out = A[0] + A[1] + A[2] + A[3];
      }
    }
  )";
  Compiler c;
  const CompileResult r = c.compileSource(src);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  interp::KernelIO in;
  in.arrays["A"] = {1, 2, 3, 4};
  const KernelVerdict v = verifyKernel("k", src, r, in, VerifyOptions{});
  EXPECT_TRUE(v.agree) << v.firstProblem();
  EXPECT_EQ(v.outputs.scalars.at("out"), 10);
}

} // namespace
} // namespace roccc
