#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/kernel.hpp"
#include "hlir/transforms.hpp"
#include "interp/interp.hpp"
#include "roccc/verify.hpp"
#include "support/strings.hpp"

namespace roccc::hlir {
namespace {

using ast::Module;

Module build(const std::string& src) {
  DiagEngine diags;
  Module m = ast::parse(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  EXPECT_TRUE(ast::analyze(m, diags)) << diags.dump();
  return m;
}

KernelInfo extractOk(const Module& m, const std::string& fn) {
  KernelInfo k;
  DiagEngine diags;
  EXPECT_TRUE(extractKernel(m, fn, k, diags)) << diags.dump();
  return k;
}

/// Compiles `src` and runs it on `io` against the AST interpreter through
/// verifyKernel: engine 1 is the extracted streaming model, engines 2-5 the
/// back end. Returns the verdict, whose `outputs` are the golden results.
KernelVerdict expectVerified(const std::string& src, const interp::KernelIO& io,
                             CompileOptions opt = {}) {
  const CompileResult r = Compiler(opt).compileSource(src);
  EXPECT_TRUE(r.ok) << r.diags.dump();
  KernelVerdict v = verifyKernel(r.kernel.kernelName, src, r, io, VerifyOptions{});
  EXPECT_TRUE(v.agree) << v.firstProblem();
  return v;
}

void expectExtractError(const std::string& src, const std::string& fn, const std::string& needle) {
  Module m = build(src);
  KernelInfo k;
  DiagEngine diags;
  ASSERT_FALSE(extractKernel(m, fn, k, diags)) << "expected failure mentioning " << needle;
  EXPECT_NE(diags.dump().find(needle), std::string::npos) << diags.dump();
}

const char* kFirSrc = R"(
  void fir(const int16 A[21], int16 C[17]) {
    int i;
    for (i = 0; i < 17; i = i + 1) {
      C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
    }
  }
)";

TEST(Affine, Forms) {
  Module m = build("void k(const int8 A[64], int8 C[8]) { int i; for (i=0;i<8;i++) { C[i] = A[2*i+3] + A[i<<2]; } }");
  // Direct structural checks on analyzeAffine are in the extraction paths;
  // here check coefficients via extraction failure modes elsewhere. Parse
  // the index expressions manually:
  const auto& f = m.functions[0];
  std::vector<const ast::ArrayRefExpr*> refs;
  ast::forEachExprInStmt(*f.body, [&](const ast::Expr& e) {
    if (e.kind == ast::ExprKind::ArrayRef && static_cast<const ast::ArrayRefExpr&>(e).name == "A")
      refs.push_back(static_cast<const ast::ArrayRefExpr*>(&e));
  });
  ASSERT_EQ(refs.size(), 2u);
  const AffineForm f1 = analyzeAffine(*refs[0]->indices[0]);
  ASSERT_TRUE(f1.valid);
  ASSERT_EQ(f1.terms.size(), 1u);
  EXPECT_EQ(f1.terms[0].second, 2);
  EXPECT_EQ(f1.constant, 3);
  const AffineForm f2 = analyzeAffine(*refs[1]->indices[0]);
  ASSERT_TRUE(f2.valid);
  EXPECT_EQ(f2.terms[0].second, 4); // i<<2
  EXPECT_EQ(f2.constant, 0);
}

TEST(Affine, RejectsNonAffine) {
  Module m = build("void k(const int8 A[64], int j, int8* o) { *o = A[j*j]; }");
  std::vector<const ast::ArrayRefExpr*> refs;
  ast::forEachExprInStmt(*m.functions[0].body, [&](const ast::Expr& e) {
    if (e.kind == ast::ExprKind::ArrayRef) refs.push_back(static_cast<const ast::ArrayRefExpr*>(&e));
  });
  EXPECT_FALSE(analyzeAffine(*refs[0]->indices[0]).valid);
}

TEST(Extract, FirWindowGeometry) {
  Module m = build(kFirSrc);
  KernelInfo k = extractOk(m, "fir");
  ASSERT_EQ(k.loops.size(), 1u);
  EXPECT_EQ(k.loops[0].begin, 0);
  EXPECT_EQ(k.loops[0].end, 17);
  EXPECT_EQ(k.loops[0].step, 1);
  ASSERT_EQ(k.inputs.size(), 1u);
  const Stream& in = k.inputs[0];
  EXPECT_EQ(in.arrayName, "A");
  EXPECT_EQ(in.accessCount(), 5);
  EXPECT_EQ(in.extent(0), 5); // 5-tap window
  EXPECT_EQ(in.minOffset(0), 0);
  EXPECT_EQ(in.dimMap[0].coeff, 1);
  EXPECT_EQ(in.strideForLoop(0, k.loops, 0), 1); // window slides by 1
  // Paper Fig 3(b): scalars A0..A4.
  EXPECT_EQ(in.scalarNames[0], "A0");
  EXPECT_EQ(in.scalarNames[4], "A4");
  ASSERT_EQ(k.outputs.size(), 1u);
  EXPECT_EQ(k.outputs[0].accessCount(), 1);
  EXPECT_TRUE(k.feedbacks.empty());
  // dp function has 5 inputs + 1 output param (Fig 3 (c)).
  const ast::Function& dp = k.dpFunction();
  ASSERT_EQ(dp.params.size(), 6u);
  EXPECT_EQ(dp.params[0].name, "A0");
  EXPECT_EQ(dp.params[5].mode, ast::ParamMode::Out);
}

TEST(Extract, FirCosimMatchesInterpreter) {
  interp::KernelIO in;
  for (int i = 0; i < 21; ++i) in.arrays["A"].push_back((i * 97) % 119 - 60);
  expectVerified(kFirSrc, in);
}

TEST(Extract, AccumulatorFeedbackDetected) {
  // Paper Fig 4.
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
  Module m = build(src);
  KernelInfo k = extractOk(m, "acc");
  ASSERT_EQ(k.feedbacks.size(), 1u);
  EXPECT_EQ(k.feedbacks[0].name, "sum");
  EXPECT_EQ(k.feedbacks[0].initial, 0);
  EXPECT_EQ(k.feedbacks[0].exportedTo, "out");
  // dp body uses the macros (Fig 4 (c)).
  const std::string dp = ast::printFunction(k.dpFunction());
  EXPECT_NE(dp.find("ROCCC_load_prev(sum)"), std::string::npos) << dp;
  EXPECT_NE(dp.find("ROCCC_store2next(sum, "), std::string::npos) << dp;
  // Every engine equals the interpreter, which sums.
  interp::KernelIO in;
  int64_t expect = 0;
  for (int i = 0; i < 32; ++i) {
    in.arrays["A"].push_back(7 * i - 50);
    expect += 7 * i - 50;
  }
  EXPECT_EQ(expectVerified(src, in).outputs.scalars.at("out"), expect);
}

TEST(Extract, PreLoopInitialValueRespected) {
  const char* src = R"(
    void acc(const int32 A[8], int32* out) {
      int i;
      int s;
      s = 100;
      for (i = 0; i < 8; i++) { s = s + A[i]; }
      *out = s;
    }
  )";
  Module m = build(src);
  KernelInfo k = extractOk(m, "acc");
  ASSERT_EQ(k.feedbacks.size(), 1u);
  EXPECT_EQ(k.feedbacks[0].initial, 100);
  interp::KernelIO in;
  for (int i = 0; i < 8; ++i) in.arrays["A"].push_back(1);
  EXPECT_EQ(expectVerified(src, in).outputs.scalars.at("out"), 108);
}

TEST(Extract, MulAccConditionalFeedback) {
  // The paper's mul_acc: 12-bit operand pair with an nd (new data) control
  // input expressed as if-else (section 5 discussion).
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
  Module m = build(src);
  KernelInfo k = extractOk(m, "mul_acc");
  ASSERT_EQ(k.inputs.size(), 2u);
  ASSERT_EQ(k.feedbacks.size(), 1u);
  ASSERT_EQ(k.scalarInputs.size(), 1u);
  EXPECT_EQ(k.scalarInputs[0].name, "nd");
  for (int nd = 0; nd <= 1; ++nd) {
    interp::KernelIO in;
    in.scalars["nd"] = nd;
    for (int i = 0; i < 16; ++i) {
      in.arrays["A"].push_back(i - 8);
      in.arrays["B"].push_back(3 * i);
    }
    SCOPED_TRACE(fmt("nd=%0", nd));
    expectVerified(src, in);
  }
}

TEST(Extract, DctStyleMultiOutputWindow) {
  // 8 outputs per iteration, stride 8 (the paper's DCT throughput shape).
  const char* src = R"(
    void dct_like(const int8 X[64], int19 Y[64]) {
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
  Module m = build(src);
  KernelInfo k = extractOk(m, "dct_like");
  ASSERT_EQ(k.inputs.size(), 1u);
  EXPECT_EQ(k.inputs[0].accessCount(), 8);
  EXPECT_EQ(k.inputs[0].extent(0), 8);
  EXPECT_EQ(k.inputs[0].strideForLoop(0, k.loops, 0), 8); // non-overlapping windows
  ASSERT_EQ(k.outputs.size(), 1u);
  EXPECT_EQ(k.outputs[0].accessCount(), 8);
  interp::KernelIO in;
  for (int i = 0; i < 64; ++i) in.arrays["X"].push_back((i * 13) % 100 - 50);
  expectVerified(src, in);
}

TEST(Extract, TwoDimensionalWindow) {
  // A (5,3)-style 2-D stencil: 2x3 window over a 2-D image.
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
  Module m = build(src);
  KernelInfo k = extractOk(m, "stencil");
  ASSERT_EQ(k.loops.size(), 2u);
  ASSERT_EQ(k.inputs.size(), 1u);
  const Stream& in = k.inputs[0];
  EXPECT_EQ(in.accessCount(), 6);
  EXPECT_EQ(in.extent(0), 2);
  EXPECT_EQ(in.extent(1), 3);
  EXPECT_EQ(in.dimMap[0].loop, 0);
  EXPECT_EQ(in.dimMap[1].loop, 1);
  interp::KernelIO io;
  for (int i = 0; i < 48; ++i) io.arrays["X"].push_back(i * 5 - 100);
  expectVerified(src, io);
}

TEST(Extract, InductionValueUse) {
  const char* src = R"(
    void ramp(const int16 A[8], int16 C[8]) {
      int i;
      for (i = 0; i < 8; i++) { C[i] = A[i] * i; }
    }
  )";
  Module m = build(src);
  KernelInfo k = extractOk(m, "ramp");
  ASSERT_EQ(k.scalarInputs.size(), 1u);
  EXPECT_TRUE(k.scalarInputs[0].isInduction);
  EXPECT_EQ(k.scalarInputs[0].name, "i_val");
  interp::KernelIO io;
  for (int i = 0; i < 8; ++i) io.arrays["A"].push_back(i + 1);
  expectVerified(src, io);
}

TEST(Extract, LookupTableInKernel) {
  const char* src = R"(
    const int16 GAMMA[16] = {0,1,4,9,16,25,36,49,64,81,100,121,144,169,196,225};
    void apply(const uint4 A[8], int16 C[8]) {
      int i;
      for (i = 0; i < 8; i++) { C[i] = GAMMA[A[i]]; }
    }
  )";
  Module m = build(src);
  KernelInfo k = extractOk(m, "apply");
  // GAMMA is a ROM, not a stream.
  EXPECT_EQ(k.inputs.size(), 1u);
  EXPECT_EQ(k.inputs[0].arrayName, "A");
  EXPECT_NE(k.dpModule.findGlobal("GAMMA"), nullptr);
  const std::string dp = ast::printFunction(k.dpFunction());
  EXPECT_NE(dp.find("ROCCC_lookup(GAMMA"), std::string::npos) << dp;
  interp::KernelIO io;
  for (int i = 0; i < 8; ++i) io.arrays["A"].push_back(15 - i);
  expectVerified(src, io);
}

TEST(Extract, BackwardWindowOffsets) {
  const char* src = R"(
    void diff(const int16 A[10], int16 C[10]) {
      int i;
      for (i = 1; i < 9; i++) { C[i] = A[i+1] - A[i-1]; }
    }
  )";
  Module m = build(src);
  KernelInfo k = extractOk(m, "diff");
  EXPECT_EQ(k.inputs[0].minOffset(0), -1);
  EXPECT_EQ(k.inputs[0].extent(0), 3);
  interp::KernelIO io;
  for (int i = 0; i < 10; ++i) io.arrays["A"].push_back(i * i);
  expectVerified(src, io);
}

TEST(Extract, ScalarReplacedTextMentionsWindow) {
  Module m = build(kFirSrc);
  KernelInfo k = extractOk(m, "fir");
  EXPECT_NE(k.scalarReplacedText.find("A0 = A[i];"), std::string::npos) << k.scalarReplacedText;
  EXPECT_NE(k.scalarReplacedText.find("A4 = A[i+4];"), std::string::npos) << k.scalarReplacedText;
}

// --- rejection paths ----------------------------------------------------------

TEST(ExtractErrors, NoLoop) {
  expectExtractError("void k(int a, int* o) { *o = a; }", "k", "contains no loop");
}

TEST(ExtractErrors, NonConstantBounds) {
  expectExtractError(
      "void k(const int8 A[64], int n, int8 C[64]) { int i; for (i = 0; i < n; i++) { C[i] = A[i]; } }",
      "k", "compile-time constants");
}

TEST(ExtractErrors, NonAffineIndex) {
  expectExtractError(
      "void k(const int8 A[64], int8 C[8]) { int i; for (i = 0; i < 8; i++) { C[i] = A[i*i]; } }",
      "k", "not affine");
}

TEST(ExtractErrors, GatherThroughDataIndex) {
  expectExtractError(
      R"(void k(const uint4 A[8], const int8 T[16], int8 C[8]) {
           int i;
           for (i = 0; i < 8; i++) { C[i] = T[A[i]]; }
         })",
      "k", "not affine");
}

TEST(ExtractErrors, WindowOverrun) {
  expectExtractError(
      "void k(const int8 A[16], int8 C[16]) { int i; for (i = 0; i < 16; i++) { C[i] = A[i+1]; } }",
      "k", "overruns");
}

TEST(ExtractErrors, TooDeepNest) {
  expectExtractError(
      R"(void k(const int8 A[2][2], int8 C[2][2]) {
           int i; int j; int l;
           for (i = 0; i < 2; i++) {
             for (j = 0; j < 2; j++) {
               for (l = 0; l < 2; l++) {
                 C[i][j] = A[i][j];
               }
             }
           }
         })",
      "k", "deeper than 2");
}

TEST(ExtractErrors, TwoTopLevelLoops) {
  expectExtractError(
      R"(void k(const int8 A[4], int8 C[4], int8 D[4]) {
           int i;
           for (i = 0; i < 4; i++) { C[i] = A[i]; }
           for (i = 0; i < 4; i++) { D[i] = A[i]; }
         })",
      "k", "one top-level loop");
}

// Property sweep: random-ish kernels with varying window/stride cosim-match.
struct GeomParam {
  int taps;
  int stride;
};

class WindowGeometrySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WindowGeometrySweep, CosimMatchesInterp) {
  const int taps = std::get<0>(GetParam());
  const int stride = std::get<1>(GetParam());
  const int iters = 8;
  const int inLen = stride * (iters - 1) + taps;
  std::string body;
  for (int t = 0; t < taps; ++t) {
    if (t) body += " + ";
    body += roccc::fmt("%0*A[%1*i+%2]", t + 1, stride, t);
  }
  const std::string src = roccc::fmt(R"(
    void k(const int16 A[%0], int32 C[%1]) {
      int i;
      for (i = 0; i < %2; i++) { C[i] = %3; }
    }
  )", inLen, iters, iters, body);
  Module m = build(src);
  KernelInfo k = extractOk(m, "k");
  EXPECT_EQ(k.inputs[0].extent(0), taps);
  EXPECT_EQ(k.inputs[0].strideForLoop(0, k.loops, 0), stride);
  interp::KernelIO io;
  for (int i = 0; i < inLen; ++i) io.arrays["A"].push_back((i * 31) % 200 - 100);
  expectVerified(src, io);
}

INSTANTIATE_TEST_SUITE_P(Geometries, WindowGeometrySweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                                            ::testing::Values(1, 2, 4, 8)));

// Unroll-then-extract: the DCT path (unroll widens the window).
TEST(Extract, UnrolledFirWidensWindow) {
  const char* src = R"(
    void fir(const int16 A[36], int16 C[32]) {
      int i;
      for (i = 0; i < 32; i++) {
        C[i] = A[i] + A[i+1] + A[i+2] + A[i+3] + A[i+4];
      }
    }
  )";
  Module m = build(src);
  DiagEngine diags;
  ASSERT_TRUE(unrollInnerLoop(m, m.functions[0], 4, diags)) << diags.dump();
  KernelInfo k = extractOk(m, "fir");
  EXPECT_EQ(k.inputs[0].extent(0), 8);  // 5 + 4 - 1
  EXPECT_EQ(k.inputs[0].strideForLoop(0, k.loops, 0), 4);
  EXPECT_EQ(k.outputs[0].accessCount(), 4); // 4 outputs per iteration
  // The same unroll through the compiler, against the rolled source.
  interp::KernelIO io;
  for (int i = 0; i < 36; ++i) io.arrays["A"].push_back(i);
  CompileOptions opt;
  opt.unrollFactor = 4;
  expectVerified(src, io, opt);
}

} // namespace
} // namespace roccc::hlir
