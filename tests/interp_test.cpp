#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/transforms.hpp"
#include "interp/interp.hpp"

// Counts heap allocations so a test can show that a prepared call's later
// calls make none.
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

namespace roccc::interp {
namespace {

using ast::Module;

Module build(const std::string& src) {
  DiagEngine diags;
  Module m = ast::parse(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  EXPECT_TRUE(ast::analyze(m, diags)) << diags.dump();
  return m;
}

TEST(Interp, FivetapFirMatchesByHand) {
  Module m = build(R"(
    void fir(const int16 A[21], int16 C[17]) {
      int i;
      for (i = 0; i < 17; i = i + 1) {
        C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
      }
    }
  )");
  KernelIO in;
  auto& a = in.arrays["A"];
  for (int i = 0; i < 21; ++i) a.push_back(i * 7 - 30);
  KernelIO out = runKernel(m, "fir", in);
  ASSERT_EQ(out.arrays["C"].size(), 17u);
  for (int i = 0; i < 17; ++i) {
    const int64_t expect = 3 * a[i] + 5 * a[i + 1] + 7 * a[i + 2] + 9 * a[i + 3] - a[i + 4];
    EXPECT_EQ(out.arrays["C"][i], static_cast<int16_t>(expect)) << "at " << i;
  }
}

TEST(Interp, AccumulatorFromPaperFigure4) {
  Module m = build(R"(
    int sum = 0;
    void acc(const int32 A[32]) {
      int i;
      for (i = 0; i < 32; i++) {
        sum = sum + A[i];
      }
    }
  )");
  KernelIO in;
  int64_t expect = 0;
  for (int i = 0; i < 32; ++i) {
    in.arrays["A"].push_back(i * i);
    expect += i * i;
  }
  KernelIO out = runKernel(m, "acc", in);
  EXPECT_EQ(out.scalars["sum"], expect);
}

TEST(Interp, FeedbackMacrosMatchPlainForm) {
  // Fig 4(c) semantics must equal Fig 4(a) semantics in software.
  Module plain = build(R"(
    int sum = 0;
    void acc(const int32 A[8]) {
      int i;
      for (i = 0; i < 8; i++) { sum = sum + A[i]; }
    }
  )");
  Module macro = build(R"(
    int sum = 0;
    void acc(const int32 A[8]) {
      int i;
      int t;
      for (i = 0; i < 8; i++) {
        t = ROCCC_load_prev(sum) + A[i];
        ROCCC_store2next(sum, t);
      }
    }
  )");
  KernelIO in;
  for (int i = 0; i < 8; ++i) in.arrays["A"].push_back(100 - 13 * i);
  EXPECT_EQ(runKernel(plain, "acc", in).scalars["sum"], runKernel(macro, "acc", in).scalars["sum"]);
}

TEST(Interp, IfElseFromPaperFigure5) {
  Module m = build(R"(
    void if_else(int x1, int x2, int* x3, int* x4) {
      int a;
      int c;
      c = x1 - x2;
      if (c < x2)
        a = x1 * x1;
      else
        a = x1 * x2 + 3;
      c = c - a;
      *x3 = c;
      *x4 = a;
      return;
    }
  )");
  auto run = [&](int x1, int x2) {
    KernelIO in;
    in.scalars["x1"] = x1;
    in.scalars["x2"] = x2;
    return runKernel(m, "if_else", in);
  };
  {
    // c = 1 - 5 = -4 < 5 -> a = 1; c = -4 - 1 = -5
    KernelIO out = run(1, 5);
    EXPECT_EQ(out.scalars["x4"], 1);
    EXPECT_EQ(out.scalars["x3"], -5);
  }
  {
    // c = 9 - 2 = 7, not < 2 -> a = 9*2+3 = 21; c = 7-21 = -14
    KernelIO out = run(9, 2);
    EXPECT_EQ(out.scalars["x4"], 21);
    EXPECT_EQ(out.scalars["x3"], -14);
  }
}

TEST(Interp, NarrowTypesTruncateOnAssignment) {
  Module m = build("void k(int a, int8* o) { *o = a; }");
  KernelIO in;
  in.scalars["a"] = 0x1FF; // 511 -> int8 -1
  EXPECT_EQ(runKernel(m, "k", in).scalars["o"], -1);
}

TEST(Interp, UnsignedDivide) {
  Module m = build("void udiv(uint8 n, uint8 d, uint8* q) { *q = n / d; }");
  KernelIO in;
  in.scalars["n"] = 200;
  in.scalars["d"] = 7;
  EXPECT_EQ(runKernel(m, "udiv", in).scalars["q"], 28);
  in.scalars["d"] = 0;
  EXPECT_EQ(runKernel(m, "udiv", in).scalars["q"], 255); // divider convention
}

TEST(Interp, NestedLoops2D) {
  Module m = build(R"(
    void smooth(const int16 X[4][6], int16 Y[4][6]) {
      int i;
      int j;
      for (i = 0; i < 4; i++) {
        for (j = 0; j < 6; j++) {
          Y[i][j] = X[i][j] + i * 10 + j;
        }
      }
    }
  )");
  KernelIO in;
  for (int i = 0; i < 24; ++i) in.arrays["X"].push_back(i);
  KernelIO out = runKernel(m, "smooth", in);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 6; ++j)
      EXPECT_EQ(out.arrays["Y"][i * 6 + j], in.arrays["X"][i * 6 + j] + i * 10 + j);
}

TEST(Interp, UserFunctionCallWithOutParams) {
  Module m = build(R"(
    void helper(int a, int b, int* s) { *s = a * b + 1; }
    void k(int x, int* o) {
      int t;
      t = 0;
      helper(x, x + 1, t);
      *o = t;
    }
  )");
  KernelIO in;
  in.scalars["x"] = 6;
  EXPECT_EQ(runKernel(m, "k", in).scalars["o"], 43);
}

TEST(Interp, LookupTable) {
  Module m = build(R"(
    const int16 T[8] = {5, 10, 15, 20, 25, 30, 35, 40};
    void k(uint3 i, int16* o) { *o = ROCCC_lookup(T, i); }
  )");
  for (int i = 0; i < 8; ++i) {
    KernelIO in;
    in.scalars["i"] = i;
    EXPECT_EQ(runKernel(m, "k", in).scalars["o"], 5 * (i + 1));
  }
}

TEST(Interp, CosIntrinsicEndpoints) {
  Module m = build("void k(uint10 p, int16* o) { *o = ROCCC_cos(p); }");
  KernelIO in;
  in.scalars["p"] = 0;
  EXPECT_EQ(runKernel(m, "k", in).scalars["o"], 32767); // cos(0) = ~1.0 in Q15
  in.scalars["p"] = 512;
  EXPECT_EQ(runKernel(m, "k", in).scalars["o"], -32767); // cos(pi)
  in.scalars["p"] = 256;
  EXPECT_NEAR(runKernel(m, "k", in).scalars["o"], 0, 2); // cos(pi/2)
}

TEST(Interp, BitIntrinsics) {
  Module m = build(R"(
    void k(uint8 x, uint8* o) {
      uint4 hi;
      uint4 lo;
      hi = ROCCC_bit_select(x, 7, 4);
      lo = ROCCC_bit_select(x, 3, 0);
      *o = ROCCC_bit_concat(lo, hi);
    }
  )");
  KernelIO in;
  in.scalars["x"] = 0xA5;
  EXPECT_EQ(runKernel(m, "k", in).scalars["o"], 0x5A); // nibble swap
}

TEST(Interp, OutOfBoundsDynamicIndexThrows) {
  Module m = build(R"(
    void k(const int8 A[4], int i, int8* o) { *o = A[i]; }
  )");
  KernelIO in;
  in.arrays["A"] = {1, 2, 3, 4};
  in.scalars["i"] = 9;
  EXPECT_THROW(runKernel(m, "k", in), InterpError);
}

TEST(Interp, StepLimitStopsRunaway) {
  Module m = build(R"(
    void k(const int32 A[4], int32* o) {
      int i;
      int s;
      s = 0;
      for (i = 0; i < 1000000; i++) { s = s + A[i % 4]; }
      *o = s;
    }
  )");
  Interpreter interp(m, /*stepLimit=*/1000);
  KernelIO in;
  in.arrays["A"] = {1, 2, 3, 4};
  EXPECT_THROW(interp.run("k", in), InterpError);
}

TEST(Interp, ShortCircuitLogic) {
  // (d != 0 && n / d > 2): the division only happens when d != 0.
  Module m = build(R"(
    void k(int n, int d, int* o) {
      if (d != 0 && n / d > 2) { *o = 1; } else { *o = 0; }
    }
  )");
  KernelIO in;
  in.scalars["n"] = 10;
  in.scalars["d"] = 0;
  EXPECT_EQ(runKernel(m, "k", in).scalars["o"], 0);
  in.scalars["d"] = 3;
  EXPECT_EQ(runKernel(m, "k", in).scalars["o"], 1);
}

TEST(Interp, NestedCallsShareGlobalScalars) {
  // setg writes the global that readg, called next by the same caller,
  // must see; neither call may restore a stale copy of it on return.
  const char* src = R"(
    int g;
    void setg(int v) { g = v; }
    void readg(int* o) { *o = g; }
    void mid(int v, int* o) { setg(v); readg(o); }
    void k(int a, int* r) { mid(a, r); }
  )";
  KernelIO in;
  in.scalars["a"] = 7;
  Module m = build(src);
  const KernelIO out = runKernel(m, "k", in);
  EXPECT_EQ(out.scalars.at("r"), 7);
  EXPECT_EQ(out.scalars.at("g"), 7);

  Module inlined = build(src);
  DiagEngine diags;
  EXPECT_GE(hlir::inlineCalls(inlined, diags), 3);
  ASSERT_FALSE(diags.hasErrors()) << diags.dump();
  EXPECT_EQ(runKernel(inlined, "k", in).scalars, out.scalars);
}

// --- the prepared call ---------------------------------------------------------

/// The InterpError message `f` throws, or "" when it returns.
template <class F>
std::string errorOf(F&& f) {
  try {
    f();
  } catch (const InterpError& e) {
    return e.message;
  }
  return "";
}

TEST(InterpPrepared, MatchesRunAndStartsFreshEachCall) {
  Module m = build(R"(
    int sum = 3;
    void step(int a, int8 b, int* o, int8* w) {
      sum = sum + a;
      *o = sum * b;
      *w = a + b;
    }
  )");
  Interpreter interp(m);
  Interpreter::PreparedCall call = interp.prepare("step", {"b", "a"}, {"w", "o", "sum"});
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{{1, 2}, {100, -3}, {100, 300}}) {
    KernelIO in;
    in.scalars["a"] = a;
    in.scalars["b"] = b;
    const KernelIO want = runKernel(m, "step", in);
    const Value inputs[] = {Value::ofInt(b), Value::ofInt(a)};
    Value outputs[3];
    call(inputs, outputs);
    EXPECT_EQ(outputs[0].toInt(), want.scalars.at("w"));
    EXPECT_EQ(outputs[1].toInt(), want.scalars.at("o"));
    EXPECT_EQ(outputs[2].toInt(), want.scalars.at("sum")); // sum restarts from 3
    EXPECT_EQ(outputs[0].type(), ScalarType::make(8, true));
  }
}

TEST(InterpPrepared, InputOverridesGlobalInitialValue) {
  // The data-path step threads feedback registers this way.
  Module m = build(R"(
    int sum = 0;
    void acc(int a, int* o) { sum = sum + a; *o = sum; }
  )");
  Interpreter interp(m);
  Interpreter::PreparedCall call = interp.prepare("acc", {"a", "sum"}, {"o", "sum"});
  Value state = Value::ofInt(0);
  for (int i = 1; i <= 4; ++i) {
    const Value inputs[] = {Value::ofInt(i), state};
    Value outputs[2];
    call(inputs, outputs);
    state = outputs[1];
    EXPECT_EQ(outputs[0].toInt(), i * (i + 1) / 2);
  }
  EXPECT_EQ(interp.stepsExecuted(), 2u);
}

TEST(InterpPrepared, ConstTableReadsDeclaredContentsAfterRunRebindsIt) {
  // run() may bind a const global array from its KernelIO; the next call
  // on the same interpreter must see the declared initializer again.
  Module m = build(R"(
    const int8 T[4] = {1, 2, 3, 4};
    void k(int i, int8* o) { *o = T[i]; }
  )");
  Interpreter interp(m);
  Interpreter::PreparedCall call = interp.prepare("k", {"i"}, {"o"});
  const Value i = Value::ofInt(1);
  Value out;
  call({&i, 1}, {&out, 1});
  EXPECT_EQ(out.toInt(), 2);
  KernelIO in;
  in.scalars["i"] = 1;
  in.arrays["T"] = {9, 9, 9, 9};
  EXPECT_EQ(interp.run("k", in).scalars.at("o"), 9);
  call({&i, 1}, {&out, 1});
  EXPECT_EQ(out.toInt(), 2);
}

TEST(InterpPrepared, CallsAfterTheFirstAllocateNothing) {
  Module m = build(R"(
    const int8 T[4] = {1, 2, 3, 4};
    int acc = 0;
    int hist[4];
    void k(uint2 i, int* o) {
      int j;
      int t;
      t = 0;
      for (j = 0; j < 4; j++) { t = t + T[j]; }
      hist[i] = t;
      acc = acc + ROCCC_lookup(T, i);
      *o = t + acc;
    }
  )");
  Interpreter interp(m);
  Interpreter::PreparedCall call = interp.prepare("k", {"i", "acc"}, {"o", "acc"});
  Value inputs[] = {Value(ScalarType::make(2, false), 0), Value::ofInt(0)};
  Value outputs[2];
  call(inputs, outputs);
  const long before = g_allocations.load();
  for (uint64_t i = 1; i < 64; ++i) {
    inputs[0] = Value(ScalarType::make(2, false), i);
    inputs[1] = outputs[1];
    call(inputs, outputs);
  }
  const long made = g_allocations.load() - before;
  EXPECT_EQ(made, 0);
  EXPECT_EQ(outputs[0].toInt(), 10 + 160); // 16 rounds of 1 + 2 + 3 + 4
}

TEST(InterpPrepared, StepLimitMessageMatchesRun) {
  Module m = build(R"(
    void k(const int32 A[4], int32* o) {
      int i;
      int s;
      s = 0;
      for (i = 0; i < 1000000; i++) { s = s + A[i % 4]; }
      *o = s;
    }
  )");
  Interpreter interp(m, /*stepLimit=*/1000);
  KernelIO in;
  in.arrays["A"] = {1, 2, 3, 4};
  const std::string viaRun = errorOf([&] { interp.run("k", in); });
  EXPECT_EQ(viaRun, "step limit 1000 exceeded (runaway loop?)");
  Interpreter::PreparedCall call = interp.prepare("k", {}, {"o"});
  Value out;
  EXPECT_EQ(errorOf([&] { call({}, {&out, 1}); }), viaRun);
}

TEST(InterpPrepared, OutOfBoundsMessageMatchesRun) {
  Module m = build("void k(const int8 A[4], int i, int8* o) { *o = A[i]; }");
  KernelIO in;
  in.scalars["i"] = 9;
  const std::string viaRun = errorOf([&] { runKernel(m, "k", in); });
  EXPECT_EQ(viaRun, "index 9 out of bounds [0, 4) for 'A'");
  Interpreter interp(m);
  Interpreter::PreparedCall call = interp.prepare("k", {"i"}, {"o"});
  const Value i = Value::ofInt(9);
  Value out;
  EXPECT_EQ(errorOf([&] { call({&i, 1}, {&out, 1}); }), viaRun);
}

TEST(InterpPrepared, UninitializedReadMessageMatchesRun) {
  // Sema scoping rules this out in source; drop the declaration after
  // analysis so 't' keeps its slot but is never written.
  Module m = build("void k(int a, int* o) { int t; *o = t + a; }");
  ast::StmtPtr decl = std::move(m.functions[0].body->stmts.front());
  m.functions[0].body->stmts.erase(m.functions[0].body->stmts.begin());
  KernelIO in;
  in.scalars["a"] = 1;
  const std::string viaRun = errorOf([&] { runKernel(m, "k", in); });
  EXPECT_EQ(viaRun, "read of uninitialized 't'");
  Interpreter interp(m);
  Interpreter::PreparedCall call = interp.prepare("k", {"a"}, {"o"});
  const Value a = Value::ofInt(1);
  Value out;
  EXPECT_EQ(errorOf([&] { call({&a, 1}, {&out, 1}); }), viaRun);
}

TEST(InterpPrepared, UnboundInputMessageMatchesRun) {
  Module m = build("void k(int a, int b, int* o) { *o = a - b; }");
  KernelIO in;
  in.scalars["a"] = 1;
  const std::string viaRun = errorOf([&] { runKernel(m, "k", in); });
  EXPECT_EQ(viaRun, "scalar input 'b' not bound");
  Interpreter interp(m);
  EXPECT_EQ(errorOf([&] { interp.prepare("k", {"a"}, {"o"}); }), viaRun);
}

} // namespace
} // namespace roccc::interp
