#include <gtest/gtest.h>

#include <algorithm>

#include "roccc/compiler.hpp"
#include "rtl/from_dp.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "vhdl/check.hpp"
#include "vhdl/layout.hpp"
#include "vhdl/testbench.hpp"

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

// build-datapath lowers every division, so no back end has a form for
// one: a data path that still holds a `div` op is an internal error that
// names the op, not a design with a comment where the divider should be.
// The netlist lowering is the one place that maps ops to cells; the HDL
// printers only print cells.
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

  try {
    rtl::Module m;
    DiagEngine diags;
    rtl::buildDatapathModule(d, m, diags);
    ADD_FAILURE() << "no InternalCompilerError";
  } catch (const InternalCompilerError& e) {
    EXPECT_NE(std::string(e.what()).find("'div'"), std::string::npos) << e.what();
  }
}

// The printers name a net after itself when nothing else in the text can
// mean it, and otherwise prefix it with its id: a name that clashes with
// another net ignoring case, or with a port; a word that could be a VHDL
// or Verilog keyword; a printer suffix or an instance label.
TEST(HdlPartition, NetsKeepTheirNameOnlyWhenNothingElseCanMeanIt) {
  rtl::Module m;
  m.name = "k_dp";
  const ScalarType t = ScalarType::make(8, false);
  const int x = m.addNet(t, "X0");
  m.inputPorts.push_back(x);
  m.inputNames.push_back("X0");
  std::vector<int> nets;
  for (const char* name : {"t1", "T1", "rem_3", "out", "a_out", "u_lut0", "C_o0", "x__nxt"}) {
    nets.push_back(m.addNet(t, name));
    m.addCell(rtl::CellKind::Not, {x}, nets.back());
  }
  m.outputPorts.push_back(nets[0]);
  m.outputNames.push_back("C_o0");
  const hdl::Partition p = hdl::partition(m, 0, 1, 1);
  const std::vector<std::string> want = {"X0",       "n1_t1",  "n2_T1",     "rem_3", "n4_out",
                                         "n5_a_out", "n6_u_lut0", "n7_C_o0", "x_nxt"};
  EXPECT_EQ(p.names, want);
}

} // namespace
} // namespace roccc
