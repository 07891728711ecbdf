#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <sstream>

#include "roccc/compiler.hpp"
#include "rtl/from_dp.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "vhdl/check.hpp"
#include "vhdl/emit.hpp"
#include "vhdl/layout.hpp"
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
  EXPECT_EQ(std::vector<std::string>(p.names.begin(), p.names.end()), want);
}

// One hand-built netlist holding the statement forms the printers get
// wrong most easily; each is pinned as an exact line of both texts, so a
// failure names the form. The cells sit at the top level (no data-path
// nodes), which prints them in the top entity.
struct EdgeDesign {
  rtl::Module m;
  dp::DataPath dp;
  hlir::KernelInfo kernel;
};

EdgeDesign edgeDesign() {
  EdgeDesign e;
  rtl::Module& m = e.m;
  m.name = "edge_dp";
  const ScalarType s64 = ScalarType::make(64, true), u40 = ScalarType::make(40, false);
  const ScalarType s32 = ScalarType::make(32, true), s16 = ScalarType::make(16, true);
  const ScalarType bit = ScalarType::make(1, false), s8 = ScalarType::make(8, true);
  const int x = m.addNet(s32, "X");
  const int y = m.addNet(s64, "Y");
  const int z = m.addNet(u40, "Z");
  m.inputPorts = {x, y, z};
  m.inputNames = {"X", "Y", "Z"};
  // Literals at and one past each end of VHDL's 32-bit integer, and a
  // 40-bit one: to_signed/to_unsigned inside the range, bit strings past it.
  int t = 1;
  auto net = [&](ScalarType type) { return m.addNet(type, "t" + std::to_string(t++)); };
  for (const int64_t k : {int64_t{INT32_MIN}, int64_t{INT32_MIN} - 1, int64_t{INT32_MAX},
                          int64_t{INT32_MAX} + 1}) {
    m.addCell(rtl::CellKind::Add, {y, m.addConst(k, s64)}, net(s64));
  }
  m.addCell(rtl::CellKind::Add, {z, m.addConst(int64_t{1} << 35, u40)}, net(u40));
  // A 1-bit compare.
  m.addCell(rtl::CellKind::Lt, {x, m.addConst(5, s32)}, net(bit));
  // A ROM whose 8-bit words widen into a 16-bit net.
  const int addr = m.addNet(ScalarType::make(2, false), "addr_lo");
  m.addCell(rtl::CellKind::Resize, {x}, addr);
  const int rom = m.addCell(rtl::CellKind::Rom, {addr}, net(s16));
  m.cells[static_cast<size_t>(rom)].romName = "tbl";
  m.cells[static_cast<size_t>(rom)].romData = {1, -2, 3, -128};
  m.cells[static_cast<size_t>(rom)].romElemType = s8;
  // A constant right shift inside the operand: a slice.
  m.addCell(rtl::CellKind::Shr, {x, m.addConst(4, ScalarType::make(3, false))}, net(s16));
  // A variable signed right shift narrowed to 16 bits: narrowed unsigned.
  const int amount = m.addNet(ScalarType::make(3, false), "amount_lo");
  m.addCell(rtl::CellKind::Resize, {x}, amount);
  m.addCell(rtl::CellKind::Shr, {x, amount}, net(s16));
  // A signed multiply narrowed to 16 bits: the low bits of the product.
  const int prod = net(s16);
  m.addCell(rtl::CellKind::Mul, {x, x}, prod);
  m.outputPorts = {prod};
  m.outputNames = {"P"};

  e.dp.name = m.name;
  e.dp.inputs = {{"X", s32, -1}, {"Y", s64, -1}, {"Z", u40, -1}};
  e.dp.outputs = {{"P", s16, -1}};
  e.kernel.kernelName = "edge";
  return e;
}

/// The text's lines with their indentation removed.
std::vector<std::string> trimmedLines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const size_t start = line.find_first_not_of(' ');
    out.push_back(start == std::string::npos ? "" : line.substr(start));
  }
  return out;
}

void expectLines(const std::string& text, const std::vector<std::string>& want) {
  const std::vector<std::string> got = trimmedLines(text);
  for (const std::string& line : want) {
    EXPECT_NE(std::find(got.begin(), got.end(), line), got.end())
        << "missing line: " << line << "\n---\n" << text;
  }
}

TEST(HdlPrinter, VhdlEdgeFormsPrintExactStatements) {
  const EdgeDesign e = edgeDesign();
  expectLines(vhdl::emitDesign(e.dp, e.m, e.kernel), {
      "t1 <= Y + to_signed(-2147483648, 64);",
      "t2 <= Y + signed'(\"1111111111111111111111111111111101111111111111111111111111111111\");",
      "t3 <= Y + to_signed(2147483647, 64);",
      "t4 <= Y + signed'(\"0000000000000000000000000000000010000000000000000000000000000000\");",
      "t5 <= Z + unsigned'(\"0000100000000000000000000000000000000000\");",
      "t6 <= \"1\" when resize(X, 33) < to_signed(5, 33) else \"0\";",
      "constant rom : rom_t := (to_signed(1, 8), to_signed(-2, 8), to_signed(3, 8), to_signed(-128, 8));",
      "signal t7 : signed(15 downto 0);",
      "signal t7_rom : signed(7 downto 0);",
      "port map (addr => unsigned(X(1 downto 0)), data => t7_rom);",
      "t7 <= resize(t7_rom, 16);",
      "t8 <= X(19 downto 4);",
      "t9 <= signed(resize(unsigned(shift_right(X, to_integer(unsigned(X(2 downto 0))))), 16));",
      "t10 <= signed(resize(unsigned(X(15 downto 0)) * unsigned(X(15 downto 0)), 16));",
      "P <= t10;",
  });
}

TEST(HdlPrinter, VerilogEdgeFormsPrintExactStatements) {
  const EdgeDesign e = edgeDesign();
  expectLines(verilog::emitDesign(e.dp, e.m, e.kernel), {
      "assign t1 = Y + 64'hffffffff80000000;",
      "assign t2 = Y + 64'hffffffff7fffffff;",
      "assign t3 = Y + 64'h7fffffff;",
      "assign t4 = Y + 64'h80000000;",
      "assign t5 = Z + 40'h800000000;",
      "assign t6 = ($signed({X[31], X}) < $signed(33'h5)) ? 1'h1 : 1'h0;",
      "2'd3: data = 8'h80;",
      "default: data = 8'h80;",
      "wire [7:0] t7_rom;",
      "edge_dp_tbl_rom u_lut0(.addr(X[1:0]), .data(t7_rom));",
      "assign t7 = {{8{t7_rom[7]}}, t7_rom};",
      "assign t8 = X[19:4];",
      "assign t9 = $signed(X) >>> X[2:0];",
      "assign t10 = X[15:0] * X[15:0];",
      "assign P = t10;",
  });
}

// A port, signal or constant named with a VHDL reserved word, in any case,
// is a checker problem; the same names as plain words are not.
TEST(VhdlCheck, ReservedWordDeclarationsAreReported) {
  const std::string text = R"(
entity e is
  port (
    Out : out signed(7 downto 0);
    outs : out signed(7 downto 0)
  );
end entity e;
architecture rtl of e is
  signal label : signed(7 downto 0);
  constant WAIT : signed(7 downto 0) := to_signed(1, 8);
  signal wire : signed(7 downto 0);
begin
  Out <= label;
  outs <= wire;
end architecture rtl;
)";
  const vhdl::CheckResult chk = vhdl::checkDesign(text);
  EXPECT_FALSE(chk.ok);
  const std::vector<std::string> want = {
      "line 4: port 'out' of entity 'e' is named with a reserved word",
      "line 9: signal 'label' is named with a reserved word",
      "line 10: constant 'wait' is named with a reserved word",
  };
  EXPECT_EQ(chk.problems, want);
}

// sanitize renames a reserved word of either language, ignoring case, and
// leaves other names alone.
TEST(HdlNames, SanitizeRenamesReservedWords) {
  EXPECT_EQ(hdl::sanitize("out"), "s_out");
  EXPECT_EQ(hdl::sanitize("OUT"), "s_OUT");
  EXPECT_EQ(hdl::sanitize("wire"), "s_wire");
  EXPECT_EQ(hdl::sanitize("out_"), "s_out");
  EXPECT_EQ(hdl::sanitize("outs"), "outs");
  EXPECT_EQ(hdl::sanitize("C_o0"), "C_o0");
  EXPECT_TRUE(hdl::isVhdlReservedWord("Signal"));
  EXPECT_FALSE(hdl::isVhdlReservedWord("wire"));
  EXPECT_TRUE(hdl::isReservedWord("wire"));
}

// The accumulator's scalar output is called `out`: the top entity, the
// testbench and the Verilog all name it s_out, and the design checks.
TEST(HdlNames, KernelPortNamedWithAReservedWordIsRenamedEverywhere) {
  CompileOptions options;
  options.emitVerilog = true;
  const CompileResult r = Compiler(options).compileSource(R"(
    int32 sum = 0;
    void acc(const int32 A[16], int32* out) {
      int i;
      for (i = 0; i < 16; i++) { sum = sum + A[i]; }
      *out = sum;
    }
  )");
  ASSERT_TRUE(r.ok) << r.diags.dump();
  std::vector<std::vector<int64_t>> sets = {{5}, {7}, {-2}};
  const std::string tb = vhdl::emitTestbench(r.datapath, vhdl::makeVectors(r.datapath, sets));
  for (const std::string* text : {&r.vhdl, &tb}) {
    for (const std::string& line : trimmedLines(*text)) {
      std::string lower = line;
      for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      EXPECT_NE(lower.rfind("out :", 0), 0u) << line;
      EXPECT_EQ(lower.rfind("signal out ", 0), std::string::npos) << line;
    }
  }
  EXPECT_NE(r.vhdl.find("s_out : out signed(31 downto 0)"), std::string::npos) << r.vhdl;
  EXPECT_NE(tb.find("s_out => s_out"), std::string::npos) << tb;
  EXPECT_NE(r.verilog.find("output wire [31:0] s_out"), std::string::npos) << r.verilog;
  const vhdl::CheckResult chk = vhdl::checkDesign(r.vhdl + "\n" + tb);
  EXPECT_TRUE(chk.ok) << join(chk.problems, "\n");
  EXPECT_TRUE(verilog::checkDesign(r.verilog).ok);
}

} // namespace
} // namespace roccc
