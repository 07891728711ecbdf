// Property: the AST printer emits parseable C, and printing reaches a fixed
// point after one round trip (parse -> print -> parse -> print is
// idempotent). Checked over every Table 1 kernel and the transformed
// source the `unroll` pass snapshots. Also covers the ROCCC_sin intrinsic
// end to end (the cos path is exercised everywhere else).
#include <gtest/gtest.h>

#include <algorithm>

#include "../bench/kernels.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "interp/interp.hpp"
#include "roccc/verify.hpp"
#include "support/cosrom.hpp"

namespace roccc {
namespace {

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, PrintParsePrintIsFixpoint) {
  DiagEngine d1;
  ast::Module m1 = ast::parse(GetParam(), d1);
  ASSERT_FALSE(d1.hasErrors()) << d1.dump();
  ASSERT_TRUE(ast::analyze(m1, d1)) << d1.dump();
  const std::string p1 = ast::printModule(m1);

  DiagEngine d2;
  ast::Module m2 = ast::parse(p1, d2);
  ASSERT_FALSE(d2.hasErrors()) << p1 << "\n" << d2.dump();
  ASSERT_TRUE(ast::analyze(m2, d2)) << d2.dump();
  const std::string p2 = ast::printModule(m2);
  EXPECT_EQ(p1, p2);

  // Semantics preserved: run both through the interpreter on zero-filled
  // inputs wherever arrays are involved.
  interp::KernelIO io;
  const ast::Function& fn = m1.functions.back();
  for (const auto& p : fn.params) {
    if (p.type.isArray()) {
      io.arrays[p.name].assign(static_cast<size_t>(p.type.elementCount()), 1);
    } else if (p.mode == ast::ParamMode::In) {
      io.scalars[p.name] = 1;
    }
  }
  const auto r1 = interp::runKernel(m1, fn.name, io);
  const auto r2 = interp::runKernel(m2, fn.name, io);
  EXPECT_EQ(r1.scalars, r2.scalars);
  EXPECT_EQ(r1.arrays, r2.arrays);
}

INSTANTIATE_TEST_SUITE_P(Table1, RoundTrip,
                         ::testing::Values(bench::kBitCorrelator, bench::kMulAcc,
                                           bench::kMulAccPredicated, bench::kUdiv,
                                           bench::kSquareRoot, bench::kCos, bench::kFir,
                                           bench::kDct, bench::kWavelet));

TEST(RoundTripExtra, TransformedSourceReparses) {
  CompileOptions opt;
  opt.pipeline.printAfter = {"unroll"};
  const CompileResult r = Compiler(opt).compileSource(bench::kBitCorrelator);
  ASSERT_TRUE(r.ok);
  const auto unroll = std::find_if(r.passLog.begin(), r.passLog.end(),
                                   [](const PassStatistics& p) { return p.name == "unroll"; });
  ASSERT_NE(unroll, r.passLog.end());
  const std::string& transformed = unroll->snapshot;
  ASSERT_FALSE(transformed.empty());
  DiagEngine d;
  ast::Module m = ast::parse(transformed, d);
  EXPECT_FALSE(d.hasErrors()) << transformed << "\n" << d.dump();
  EXPECT_TRUE(ast::analyze(m, d)) << d.dump();
}

TEST(RoundTripExtra, DpFunctionReparses) {
  Compiler c;
  const CompileResult r = c.compileSource(bench::kMulAcc);
  ASSERT_TRUE(r.ok);
  const std::string printed = ast::printModule(r.kernel.dpModule);
  DiagEngine d;
  ast::Module m = ast::parse(printed, d);
  EXPECT_FALSE(d.hasErrors()) << printed << "\n" << d.dump();
  EXPECT_TRUE(ast::analyze(m, d)) << printed << "\n" << d.dump();
}

TEST(SinIntrinsic, CompilesAndMatchesRom) {
  const char* src = R"(
    void wave(const uint10 P[16], int16 S[16]) {
      int i;
      for (i = 0; i < 16; i++) {
        S[i] = ROCCC_sin(P[i]);
      }
    }
  )";
  Compiler c;
  const CompileResult r = c.compileSource(src);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  interp::KernelIO in;
  for (int i = 0; i < 16; ++i) in.arrays["P"].push_back(i * 64 + 3);
  const KernelVerdict v = verifyKernel("wave", src, r, in, VerifyOptions{});
  ASSERT_TRUE(v.agree) << v.firstProblem();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(v.outputs.arrays.at("S")[static_cast<size_t>(i)],
              cosRomEntry(i * 64 + 3, /*sine=*/true));
  }
}

} // namespace
} // namespace roccc
