#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/transforms.hpp"
#include "interp/interp.hpp"

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

int countLoops(const ast::Function& f) {
  int n = 0;
  ast::forEachStmt(*f.body, [&](const ast::Stmt& s) {
    if (s.kind == ast::StmtKind::For) ++n;
  });
  return n;
}

TEST(ConstantFold, FoldsArithmeticAndPrunesIf) {
  Module m = build(R"(
    void k(int a, int* o) {
      int x;
      x = 3 * 4 + 2;
      if (1 < 2) { x = x + a; } else { x = 0; }
      *o = x + (5 - 5);
    }
  )");
  DiagEngine diags;
  const int folds = constantFold(m, diags);
  EXPECT_GE(folds, 3);
  const std::string p = ast::printFunction(m.functions[0]);
  EXPECT_NE(p.find("x = 14;"), std::string::npos) << p;
  EXPECT_EQ(p.find("if"), std::string::npos) << p; // branch pruned
  // Behavior preserved.
  interp::KernelIO in;
  in.scalars["a"] = 10;
  EXPECT_EQ(interp::runKernel(m, "k", in).scalars["o"], 24);
}

TEST(ConstantFold, KeepsDynamicConditions) {
  Module m = build("void k(int a, int* o) { if (a < 2) { *o = 1; } else { *o = 2; } }");
  DiagEngine diags;
  constantFold(m, diags);
  EXPECT_NE(ast::printFunction(m.functions[0]).find("if"), std::string::npos);
}

TEST(FullUnroll, EliminatesLoopAndPreservesSemantics) {
  const char* src = R"(
    void k(const int32 A[8], int32* o) {
      int i;
      int s;
      s = 0;
      for (i = 0; i < 8; i++) { s = s + A[i] * i; }
      *o = s;
    }
  )";
  Module ref = build(src);
  Module m = build(src);
  DiagEngine diags;
  EXPECT_EQ(fullyUnrollLoops(m, m.functions[0], diags), 1);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  EXPECT_EQ(countLoops(m.functions[0]), 0);
  interp::KernelIO in;
  for (int i = 0; i < 8; ++i) in.arrays["A"].push_back(3 * i - 5);
  EXPECT_EQ(interp::runKernel(m, "k", in).scalars["o"], interp::runKernel(ref, "k", in).scalars["o"]);
}

TEST(FullUnroll, UnrollsNestedInnerFirst) {
  Module m = build(R"(
    void k(const int32 A[4][4], int32* o) {
      int i;
      int j;
      int s;
      s = 0;
      for (i = 0; i < 4; i++) {
        for (j = 0; j < 4; j++) { s = s + A[i][j]; }
      }
      *o = s;
    }
  )");
  DiagEngine diags;
  EXPECT_EQ(fullyUnrollLoops(m, m.functions[0], diags), 2);
  EXPECT_EQ(countLoops(m.functions[0]), 0);
  interp::KernelIO in;
  int64_t expect = 0;
  for (int i = 0; i < 16; ++i) {
    in.arrays["A"].push_back(i);
    expect += i;
  }
  EXPECT_EQ(interp::runKernel(m, "k", in).scalars["o"], expect);
}

TEST(FullUnroll, RespectsMaxTrip) {
  Module m = build(R"(
    void k(const int32 A[100], int32* o) {
      int i;
      int s;
      s = 0;
      for (i = 0; i < 100; i++) { s = s + A[i]; }
      *o = s;
    }
  )");
  DiagEngine diags;
  EXPECT_EQ(fullyUnrollLoops(m, m.functions[0], diags, /*maxTrip=*/50), 0);
  EXPECT_EQ(countLoops(m.functions[0]), 1);
}

TEST(PartialUnroll, WidensBodyAndPreservesSemantics) {
  const char* src = R"(
    void fir(const int16 A[20], int16 C[16]) {
      int i;
      for (i = 0; i < 16; i++) {
        C[i] = A[i] + A[i+1] * 2 + A[i+4];
      }
    }
  )";
  Module ref = build(src);
  Module m = build(src);
  DiagEngine diags;
  ASSERT_TRUE(unrollInnerLoop(m, m.functions[0], 4, diags)) << diags.dump();
  // Step is now 4.
  ast::forEachStmt(*m.functions[0].body, [](const ast::Stmt& s) {
    if (s.kind == ast::StmtKind::For) EXPECT_EQ(static_cast<const ast::ForStmt&>(s).step, 4);
  });
  interp::KernelIO in;
  for (int i = 0; i < 20; ++i) in.arrays["A"].push_back(i * 3 + 1);
  EXPECT_EQ(interp::runKernel(m, "fir", in).arrays["C"], interp::runKernel(ref, "fir", in).arrays["C"]);
}

TEST(PartialUnroll, RejectsNonDividingFactor) {
  Module m = build(R"(
    void k(const int32 A[10], int32 C[10]) {
      int i;
      for (i = 0; i < 10; i++) { C[i] = A[i]; }
    }
  )");
  DiagEngine diags;
  EXPECT_FALSE(unrollInnerLoop(m, m.functions[0], 3, diags));
  EXPECT_TRUE(diags.hasErrors());
}

TEST(StripMine, CreatesBlockedNestPreservingSemantics) {
  const char* src = R"(
    void k(const int32 A[32], int32 C[32]) {
      int i;
      for (i = 0; i < 32; i++) { C[i] = A[i] * 2 + 1; }
    }
  )";
  Module ref = build(src);
  Module m = build(src);
  DiagEngine diags;
  ASSERT_TRUE(stripMineInnerLoop(m, m.functions[0], 8, diags)) << diags.dump();
  EXPECT_EQ(countLoops(m.functions[0]), 2);
  interp::KernelIO in;
  for (int i = 0; i < 32; ++i) in.arrays["A"].push_back(i - 16);
  EXPECT_EQ(interp::runKernel(m, "k", in).arrays["C"], interp::runKernel(ref, "k", in).arrays["C"]);
}

TEST(Fusion, FusesIndependentLoops) {
  const char* src = R"(
    void k(const int32 A[16], int32 C[16], int32 D[16]) {
      int i;
      for (i = 0; i < 16; i++) { C[i] = A[i] + 1; }
      for (i = 0; i < 16; i++) { D[i] = A[i] * 2; }
    }
  )";
  Module ref = build(src);
  Module m = build(src);
  DiagEngine diags;
  EXPECT_EQ(fuseAdjacentLoops(m, m.functions[0], diags), 1);
  EXPECT_EQ(countLoops(m.functions[0]), 1);
  interp::KernelIO in;
  for (int i = 0; i < 16; ++i) in.arrays["A"].push_back(i * i);
  const auto a = interp::runKernel(m, "k", in);
  const auto b = interp::runKernel(ref, "k", in);
  EXPECT_EQ(a.arrays.at("C"), b.arrays.at("C"));
  EXPECT_EQ(a.arrays.at("D"), b.arrays.at("D"));
}

TEST(Fusion, RefusesScalarDependence) {
  Module m = build(R"(
    int s = 0;
    void k(const int32 A[8], int32 C[8]) {
      int i;
      for (i = 0; i < 8; i++) { s = s + A[i]; }
      for (i = 0; i < 8; i++) { C[i] = s; }
    }
  )");
  DiagEngine diags;
  EXPECT_EQ(fuseAdjacentLoops(m, m.functions[0], diags), 0);
}

TEST(Fusion, RefusesDifferentHeaders) {
  Module m = build(R"(
    void k(const int32 A[16], int32 C[16], int32 D[8]) {
      int i;
      for (i = 0; i < 16; i++) { C[i] = A[i]; }
      for (i = 0; i < 8; i++) { D[i] = A[i]; }
    }
  )");
  DiagEngine diags;
  EXPECT_EQ(fuseAdjacentLoops(m, m.functions[0], diags), 0);
}

TEST(Inline, ExpandsCallPreservingSemantics) {
  const char* src = R"(
    void square(int x, int* r) { *r = x * x; }
    void k(const int32 A[8], int32 C[8]) {
      int i;
      int t;
      for (i = 0; i < 8; i++) {
        t = 0;
        square(A[i], t);
        C[i] = t + 1;
      }
    }
  )";
  Module ref = build(src);
  Module m = build(src);
  DiagEngine diags;
  EXPECT_EQ(inlineCalls(m, diags), 1);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  // No remaining calls to 'square'.
  bool hasCall = false;
  ast::forEachExprInStmt(*m.functions[1].body, [&](const ast::Expr& e) {
    if (e.kind == ast::ExprKind::Call &&
        static_cast<const ast::CallExpr&>(e).callee == "square")
      hasCall = true;
  });
  EXPECT_FALSE(hasCall);
  interp::KernelIO in;
  for (int i = 0; i < 8; ++i) in.arrays["A"].push_back(i - 3);
  EXPECT_EQ(interp::runKernel(m, "k", in).arrays["C"], interp::runKernel(ref, "k", in).arrays["C"]);
}

TEST(Inline, HandlesNestedCalls) {
  Module m = build(R"(
    void add1(int x, int* r) { *r = x + 1; }
    void add2(int x, int* r) { int t; t = 0; add1(x, t); add1(t, r); }
    void k(int a, int* o) { int t; t = 0; add2(a, t); *o = t; }
  )");
  DiagEngine diags;
  EXPECT_GE(inlineCalls(m, diags), 3);
  interp::KernelIO in;
  in.scalars["a"] = 5;
  EXPECT_EQ(interp::runKernel(m, "k", in).scalars["o"], 7);
}

TEST(LutConversion, ConvertsPureUnaryFunction) {
  // "Function calls will either be inlined or whenever feasible made into a
  // lookup table" (section 2).
  const char* src = R"(
    void cube_low(uint4 x, int16* r) { *r = x * x * x; }
    void k(const uint4 A[8], int16 C[8]) {
      int i;
      int16 t;
      for (i = 0; i < 8; i++) {
        t = 0;
        cube_low(A[i], t);
        C[i] = t;
      }
    }
  )";
  Module ref = build(src);
  Module m = build(src);
  DiagEngine diags;
  EXPECT_EQ(convertCallsToLookupTables(m, diags), 1);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  // A 16-entry table exists now.
  const ast::VarDecl* table = m.findGlobal("cube_low_lut");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->init.size(), 16u);
  EXPECT_EQ(table->init[3], 27);
  interp::KernelIO in;
  for (int i = 0; i < 8; ++i) in.arrays["A"].push_back(i);
  EXPECT_EQ(interp::runKernel(m, "k", in).arrays["C"], interp::runKernel(ref, "k", in).arrays["C"]);
}

TEST(LutConversion, OutParamNamedLikeAGlobalFillsTheTable) {
  // The callee's out-parameter shadows a global scalar; each table entry is
  // the out-parameter's value, not the untouched global's.
  Module m = build(R"(
    int r = 5;
    void sq(uint4 x, int* r) { *r = x * x + 1; }
    void k(uint4 a, int* o) { int t; t = 0; sq(a, t); *o = t; }
  )");
  DiagEngine diags;
  EXPECT_EQ(convertCallsToLookupTables(m, diags), 1);
  const ast::VarDecl* table = m.findGlobal("sq_lut");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->init, (std::vector<int64_t>{1, 2, 5, 10, 17, 26, 37, 50, 65, 82, 101, 122,
                                               145, 170, 197, 226}));
}

TEST(LutConversion, RespectsWidthLimit) {
  Module m = build(R"(
    void f(uint16 x, int16* r) { *r = x + 1; }
    void k(uint16 a, int16* o) { int16 t; t = 0; f(a, t); *o = t; }
  )");
  DiagEngine diags;
  EXPECT_EQ(convertCallsToLookupTables(m, diags, /*maxIndexBits=*/10), 0);
}

TEST(LutConversion, SignedInputIndexedByRawBits) {
  Module m = build(R"(
    void f(int4 x, int16* r) { *r = x * 3; }
    void k(int4 a, int16* o) { int16 t; t = 0; f(a, t); *o = t; }
  )");
  DiagEngine diags;
  EXPECT_EQ(convertCallsToLookupTables(m, diags), 1);
  interp::KernelIO in;
  in.scalars["a"] = -5;
  EXPECT_EQ(interp::runKernel(m, "k", in).scalars["o"], -15);
  in.scalars["a"] = 7;
  EXPECT_EQ(interp::runKernel(m, "k", in).scalars["o"], 21);
}

// Property sweep: partial unroll by every dividing factor preserves results.
class UnrollSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnrollSweep, SemanticsPreserved) {
  const int factor = GetParam();
  const char* src = R"(
    void fir(const int16 A[36], int16 C[32]) {
      int i;
      for (i = 0; i < 32; i++) {
        C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
      }
    }
  )";
  Module ref = build(src);
  Module m = build(src);
  DiagEngine diags;
  ASSERT_TRUE(unrollInnerLoop(m, m.functions[0], factor, diags)) << diags.dump();
  interp::KernelIO in;
  for (int i = 0; i < 36; ++i) in.arrays["A"].push_back((i * 37) % 251 - 125);
  EXPECT_EQ(interp::runKernel(m, "fir", in).arrays["C"], interp::runKernel(ref, "fir", in).arrays["C"]);
}

INSTANTIATE_TEST_SUITE_P(Factors, UnrollSweep, ::testing::Values(2, 4, 8, 16, 32));

} // namespace
} // namespace roccc::hlir
