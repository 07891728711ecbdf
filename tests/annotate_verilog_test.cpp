#include <gtest/gtest.h>

#include "dp/annotate.hpp"
#include "dp/eval.hpp"
#include "rtl/from_dp.hpp"
#include "roccc/verify.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "vhdl/verilog.hpp"

namespace roccc {
namespace {

CompileResult compile(const std::string& src, CompileOptions opt = {}) {
  Compiler c(opt);
  CompileResult r = c.compileSource(src);
  EXPECT_TRUE(r.ok) << r.diags.dump();
  return r;
}

/// compile() with the Verilog form requested.
CompileResult compileVerilog(const std::string& src) {
  CompileOptions opt;
  opt.emitVerilog = true;
  return compile(src, opt);
}

const char* kFir = R"(
  void fir(const int16 A[36], int16 C[32]) {
    int i;
    for (i = 0; i < 32; i = i + 1) {
      C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
    }
  }
)";

const char* kAcc = R"(
  int32 sum = 0;
  void acc(const int32 A[16], int32* out) {
    int i;
    for (i = 0; i < 16; i++) { sum = sum + A[i]; }
    *out = sum;
  }
)";

// --- JSON export (Fig 1 "Graph Editor + Annotation") ---------------------------

TEST(Annotation, JsonExportIsWellFormedAndComplete) {
  CompileResult r = compile(kFir);
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(dp::exportJson(r.datapath).pretty(), doc, error)) << error;
  std::vector<std::string> keys;
  for (const auto& member : doc.members()) keys.push_back(member.first);
  EXPECT_EQ(keys, (std::vector<std::string>{"name", "stages", "nodes", "ops", "values", "inputs",
                                            "outputs", "feedbacks"}));
  EXPECT_EQ(doc.find("name")->asString(), "fir_dp");
  EXPECT_EQ(doc.find("stages")->asInt(), r.datapath.stageCount);
  EXPECT_EQ(doc.find("nodes")->items().size(), r.datapath.nodes.size());
  EXPECT_EQ(doc.find("ops")->items().size(), r.datapath.ops.size());
  EXPECT_EQ(doc.find("values")->items().size(), r.datapath.values.size());
  EXPECT_EQ(doc.find("inputs")->items().size(), r.datapath.inputs.size());
}

TEST(Annotation, JsonExportEscapesControlCharactersInNames) {
  CompileResult r = compile(kFir);
  r.datapath.name = "fir\r\x01dp";
  r.datapath.values.front().name = "v\r\x01\"";
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(dp::exportJson(r.datapath).pretty(), doc, error)) << error;
  EXPECT_EQ(doc.find("name")->asString(), "fir\r\x01dp");
  EXPECT_EQ(doc.find("values")->items().front().find("name")->asString(), "v\r\x01\"");
}

TEST(Annotation, ForceStageRepipelines) {
  CompileResult r = compile(kFir);
  const int before = r.datapath.stageCount;
  // Push the last op a few stages later.
  dp::Annotations a;
  int lastOp = -1;
  for (size_t i = 0; i < r.datapath.ops.size(); ++i) {
    if (r.datapath.ops[i].result >= 0) lastOp = static_cast<int>(i);
  }
  ASSERT_GE(lastOp, 0);
  a.forceStage[lastOp] = before + 2;
  DiagEngine diags;
  ASSERT_TRUE(dp::applyAnnotations(r.datapath, a, diags)) << diags.dump();
  EXPECT_EQ(r.datapath.stageCount, before + 3);
  // Rebuild RTL and verify behavior is unchanged.
  rtl::Module m2;
  ASSERT_TRUE(rtl::buildDatapathModule(r.datapath, m2, diags)) << diags.dump();
  r.module = std::move(m2);
  interp::KernelIO in;
  for (int i = 0; i < 36; ++i) in.arrays["A"].push_back((i * 31) % 199 - 99);
  const KernelVerdict v = verifyKernel("fir", kFir, r, in, VerifyOptions{});
  EXPECT_TRUE(v.agree) << v.firstProblem();
}

TEST(Annotation, ForceStageRespectsFeedbackLoops) {
  CompileResult r = compile(kAcc);
  // Pinning the SNX-producing op to a later stage than the LPR breaks the
  // single-latch loop; the annotation must be rejected.
  const auto& fb = r.datapath.feedbacks.at(0);
  const int snxDef = r.datapath.values[static_cast<size_t>(fb.snxValue)].def;
  dp::Annotations a;
  a.forceStage[snxDef] = r.datapath.ops[static_cast<size_t>(snxDef)].stage + 1;
  DiagEngine diags;
  EXPECT_FALSE(dp::applyAnnotations(r.datapath, a, diags));
  EXPECT_NE(diags.dump().find("feedback"), std::string::npos) << diags.dump();
}

TEST(Annotation, ForceWidthNarrowsWithWarning) {
  CompileResult r = compile(kFir);
  // Find a mid-width value and narrow it.
  std::string name;
  for (const auto& v : r.datapath.values) {
    const bool isConst = v.def >= 0 && r.datapath.ops[static_cast<size_t>(v.def)].op == mir::Opcode::Ldc;
    if (!v.name.empty() && v.width > 8 && !isConst) {
      name = v.name;
      break;
    }
  }
  ASSERT_FALSE(name.empty());
  dp::Annotations a;
  a.forceWidth[name] = 4;
  DiagEngine diags;
  EXPECT_TRUE(dp::applyAnnotations(r.datapath, a, diags));
  bool warned = false;
  for (const auto& d : diags.all()) {
    if (d.severity == Severity::Warning) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(Annotation, UnknownNamesRejected) {
  CompileResult r = compile(kFir);
  dp::Annotations a;
  a.forceWidth["no_such_value"] = 8;
  DiagEngine diags;
  EXPECT_FALSE(dp::applyAnnotations(r.datapath, a, diags));
}

// --- Verilog backend --------------------------------------------------------------

TEST(Verilog, EmittedDesignsValidate) {
  for (const char* src : {kFir, kAcc}) {
    CompileResult r = compileVerilog(src);
    ASSERT_FALSE(r.verilog.empty());
    const auto chk = verilog::checkDesign(r.verilog);
    EXPECT_TRUE(chk.ok) << join(chk.problems, "\n") << "\n---\n" << r.verilog;
    EXPECT_GE(chk.moduleCount, static_cast<int>(r.datapath.nodes.size()) + 1);
    EXPECT_GE(chk.instantiationCount, static_cast<int>(r.datapath.nodes.size()));
  }
}

TEST(Verilog, BranchKernelWithRomValidates) {
  const char* src = R"(
    const int16 T[8] = {1,2,3,4,5,6,7,8};
    void k(const uint3 A[8], int16 C[8]) {
      int i;
      for (i = 0; i < 8; i++) {
        if (A[i] < 4) { C[i] = T[A[i]]; } else { C[i] = -T[A[i]]; }
      }
    }
  )";
  CompileResult r = compileVerilog(src);
  const auto chk = verilog::checkDesign(r.verilog);
  EXPECT_TRUE(chk.ok) << join(chk.problems, "\n") << "\n---\n" << r.verilog;
  EXPECT_NE(r.verilog.find("case (addr)"), std::string::npos); // ROM module
}

TEST(Verilog, MentionsKeyConstructs) {
  CompileResult r = compileVerilog(kAcc);
  EXPECT_NE(r.verilog.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(r.verilog.find("module acc_dp("), std::string::npos);
  EXPECT_NE(r.verilog.find("input wire valid"), std::string::npos); // gated feedback
  EXPECT_NE(r.verilog.find("_fbreg"), std::string::npos);
}

TEST(Verilog, ValidatorCatchesBrokenText) {
  const auto bad1 = verilog::checkDesign("module a(input wire x);\n");
  EXPECT_FALSE(bad1.ok); // unterminated
  const auto bad2 = verilog::checkDesign(R"(
    module a(input wire x, output wire y);
      assign z = x;
    endmodule
  )");
  EXPECT_FALSE(bad2.ok); // z undeclared
  const auto good = verilog::checkDesign(R"(
    module a(input wire x, output wire y);
      assign y = x;
    endmodule
  )");
  EXPECT_TRUE(good.ok) << join(good.problems, "\n");

  // An instantiation of a module the text never declares.
  const auto ghost = verilog::checkDesign(R"(
    module top(input wire x);
      ghost u0 (.a(x));
    endmodule
  )");
  EXPECT_FALSE(ghost.ok);
  EXPECT_EQ(ghost.instantiationCount, 1);
  EXPECT_EQ(ghost.problems, std::vector<std::string>{"line 3: instantiation of unknown module 'ghost'"});

  // A leaf declared after the module that instantiates it still counts.
  const auto later = verilog::checkDesign(R"(
    module top(input wire x);
      leaf u0 (.a(x));
    endmodule
    module leaf(input wire a);
    endmodule
  )");
  EXPECT_TRUE(later.ok) << join(later.problems, "\n");
  EXPECT_EQ(later.instantiationCount, 1);
}

} // namespace
} // namespace roccc
