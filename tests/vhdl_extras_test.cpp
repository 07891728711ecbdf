#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "roccc/compiler.hpp"
#include "rtl/from_dp.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "synth/estimate.hpp"
#include "vhdl/check.hpp"
#include "vhdl/emit.hpp"
#include "vhdl/testbench.hpp"
#include "vhdl/verilog.hpp"

namespace roccc {
namespace {

CompileResult compile(const std::string& src) {
  Compiler c;
  CompileResult r = c.compileSource(src);
  EXPECT_TRUE(r.ok) << r.diags.dump();
  return r;
}

const char* kFir = R"(
  void fir(const int16 A[36], int16 C[32]) {
    int i;
    for (i = 0; i < 32; i = i + 1) {
      C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
    }
  }
)";

TEST(Testbench, VectorsComeFromDataPathEvaluation) {
  CompileResult r = compile(kFir);
  std::vector<std::vector<int64_t>> sets = {{1, 2, 3, 4, 5}, {-1, 0, 1, 0, -1}, {100, -100, 50, -50, 25}};
  const auto vectors = vhdl::makeVectors(r.datapath, sets);
  ASSERT_EQ(vectors.size(), 3u);
  for (size_t t = 0; t < sets.size(); ++t) {
    int64_t expect = 3 * sets[t][0] + 5 * sets[t][1] + 7 * sets[t][2] + 9 * sets[t][3] - sets[t][4];
    expect = static_cast<int16_t>(expect);
    ASSERT_EQ(vectors[t].expectedOutputs.size(), 1u);
    EXPECT_EQ(vectors[t].expectedOutputs[0].toInt(), expect) << "vector " << t;
  }
}

TEST(Testbench, FeedbackThreadsAcrossVectors) {
  CompileResult r = compile(R"(
    int32 sum = 0;
    void acc(const int32 A[8], int32* out) {
      int i;
      for (i = 0; i < 8; i++) { sum = sum + A[i]; }
      *out = sum;
    }
  )");
  std::vector<std::vector<int64_t>> sets = {{5}, {7}, {-2}};
  const auto vectors = vhdl::makeVectors(r.datapath, sets);
  // Expected outputs accumulate: 5, 12, 10.
  EXPECT_EQ(vectors[0].expectedOutputs[0].toInt(), 5);
  EXPECT_EQ(vectors[1].expectedOutputs[0].toInt(), 12);
  EXPECT_EQ(vectors[2].expectedOutputs[0].toInt(), 10);
}

TEST(Testbench, EmittedBenchIsStructurallyValid) {
  CompileResult r = compile(kFir);
  std::vector<std::vector<int64_t>> sets;
  for (int t = 0; t < 8; ++t) sets.push_back({t, t + 1, t + 2, t + 3, t + 4});
  const auto vectors = vhdl::makeVectors(r.datapath, sets);
  const std::string tb = vhdl::emitTestbench(r.datapath, vectors);
  // The design + testbench together must validate (the tb instantiates the
  // design entity).
  const auto chk = vhdl::checkDesign(r.vhdl + "\n" + tb);
  EXPECT_TRUE(chk.ok) << join(chk.problems, "\n") << "\n" << tb;
  EXPECT_NE(tb.find("entity fir_dp_tb is"), std::string::npos);
  EXPECT_NE(tb.find("TESTBENCH PASSED"), std::string::npos);
  EXPECT_NE(tb.find("assert"), std::string::npos);
}

TEST(Power, ScalesWithResourcesAndClock) {
  synth::Resources small;
  small.lut4 = 100;
  small.ff = 100;
  synth::Resources big = small;
  big.lut4 = 1000;
  const double p1 = synth::estimatePowerMw(small, 100);
  const double p2 = synth::estimatePowerMw(big, 100);
  const double p3 = synth::estimatePowerMw(small, 200);
  EXPECT_GT(p2, p1);
  EXPECT_NEAR(p3, 2 * p1, 1e-9);
  EXPECT_GT(p1, 0);
  // A multiplier block costs more than a LUT.
  synth::Resources mult;
  mult.mult18 = 1;
  synth::Resources lut;
  lut.lut4 = 1;
  EXPECT_GT(synth::estimatePowerMw(mult, 100), synth::estimatePowerMw(lut, 100));
}

TEST(Power, Table1DesignsInPlausibleRange) {
  CompileResult r = compile(kFir);
  const auto rep = synth::estimate(r.module);
  const double mw = synth::estimatePowerMw(rep.res, rep.fmaxMHz());
  // A small Virtex-II datapath at a couple hundred MHz: tens to hundreds
  // of milliwatts dynamic.
  EXPECT_GT(mw, 5.0);
  EXPECT_LT(mw, 2000.0);
}

// build-datapath lowers every division, so no back end has a form for
// one: a data path that still holds a `div` op is an internal error that
// names the op, not a design with a comment where the divider should be.
TEST(BackEnd, OpWithoutAnHdlFormIsAnInternalError) {
  const CompileResult r = compile(R"(
    void q(const uint8 A[16], const uint8 B[16], uint8 C[16]) {
      int i;
      for (i = 0; i < 16; i++) { C[i] = A[i] + B[i]; }
    }
  )");
  dp::DataPath d = r.datapath;
  const auto add = std::find_if(d.ops.begin(), d.ops.end(),
                                [](const dp::DpOp& o) { return o.op == mir::Opcode::Add; });
  ASSERT_NE(add, d.ops.end()) << d.dump();
  add->op = mir::Opcode::Div;

  auto expectNamesDiv = [](const std::function<void()>& emit) {
    try {
      emit();
      ADD_FAILURE() << "no InternalCompilerError";
    } catch (const InternalCompilerError& e) {
      EXPECT_NE(std::string(e.what()).find("'div'"), std::string::npos) << e.what();
    }
  };
  expectNamesDiv([&] {
    rtl::Module m;
    DiagEngine diags;
    rtl::buildDatapathModule(d, m, diags);
  });
  expectNamesDiv([&] { vhdl::emitDesign(d, r.module, r.kernel); });
  expectNamesDiv([&] { verilog::emitDesign(d, r.kernel); });
}

} // namespace
} // namespace roccc
