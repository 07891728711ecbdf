// PassManager / pipeline tests: declared pass ordering, verify-each
// catching deliberately corrupted IR, per-pass statistics counters agreeing
// with the legacy free-text passLog values, and the --stats-json shape.
#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/transforms.hpp"
#include "roccc/compiler.hpp"
#include "support/json.hpp"

namespace roccc {
namespace {

// The Table 1 FIR kernel (one 5-tap filter).
const char* kFirSrc = R"(
  void fir(const int16 A[36], int16 C[32]) {
    int i;
    for (i = 0; i < 32; i = i + 1) {
      C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
    }
  }
)";

// A kernel with an inlinable helper and a foldable expression, so the hlir
// counters are nonzero.
const char* kHelperSrc = R"(
  void scale(int16 x, int16* r) { *r = x * 3; }
  void k(const int16 A[32], int16 B[32]) {
    int i;
    int16 t;
    for (i = 0; i < 32; i = i + 1) {
      t = 0;
      scale(A[i], t);
      B[i] = t + (2 + 5);
    }
  }
)";

const PassStatistics* findPass(const std::vector<PassStatistics>& stats, const std::string& name) {
  for (const auto& s : stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(Pipeline, DeclaredPassOrdering) {
  const Compiler c;
  const std::vector<std::string> names = c.buildPipeline().passNames();
  const std::vector<std::string> expected = {
      "parse",          "lut-convert",        "inline",     "const-fold",
      "fuse-loops",     "unroll-inner-full",  "unroll",     "extract-kernel",
      "lower-mir",      "canonicalize-effects", "ssa-build", "mir-optimize",
      "build-datapath", "retime",             "build-rtl",  "emit-vhdl",
      "emit-verilog",
  };
  EXPECT_EQ(names, expected);
}

TEST(Pipeline, EveryRegisteredPassProducesOneStatsRecord) {
  const Compiler c;
  const CompileResult r = c.compileSource(kFirSrc);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  EXPECT_EQ(r.passLog.size(), c.buildPipeline().passes().size());
  for (const auto& s : r.passLog) {
    EXPECT_TRUE(s.ran) << s.name;
    EXPECT_GE(s.wallMs, 0.0) << s.name;
  }
}

TEST(Pipeline, DisabledPassesAreRecordedAsSkipped) {
  CompileOptions opt;
  opt.optimize = false;
  opt.convertCallsToLuts = false;
  opt.fullUnrollInnerLoops = false;
  const Compiler c(opt);
  const CompileResult r = c.compileSource(kFirSrc);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  for (const char* name : {"mir-optimize", "lut-convert", "unroll-inner-full"}) {
    const PassStatistics* s = findPass(r.passLog, name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_FALSE(s->ran) << name;
    EXPECT_EQ(s->wallMs, 0.0) << name;
  }
}

TEST(Pipeline, VerifyEachCompilesCleanKernels) {
  CompileOptions opt;
  opt.pipeline.verifyEach = true;
  const Compiler c(opt);
  const CompileResult r = c.compileSource(kFirSrc);
  EXPECT_TRUE(r.ok) << r.diags.dump();
}

TEST(Pipeline, VerifyEachCatchesCorruptedMir) {
  // Start from a valid SSA-form MIR function...
  const Compiler c;
  const CompileResult good = c.compileSource(kFirSrc);
  ASSERT_TRUE(good.ok);

  CompileOptions opt;
  CompileResult r;
  PassContext ctx(opt, r);
  ctx.mirInSSA = true;
  r.mir = good.mir;

  // ...then run a pipeline whose second pass silently breaks the SSA
  // single-assignment property (a duplicated definition).
  PipelineOptions pipe;
  pipe.verifyEach = true;
  PassManager pm(pipe);
  pm.addPass({"benign", PassLayer::Mir, [](PassContext&, PassStatistics&) { return true; }});
  pm.addPass({"corrupt", PassLayer::Mir, [](PassContext& cx, PassStatistics&) {
                for (auto& b : cx.result.mir.blocks) {
                  for (const auto& in : b.instrs) {
                    if (in.hasDst()) {
                      b.instrs.push_back(in); // second def of the same register
                      return true;
                    }
                  }
                }
                return true;
              }});
  std::vector<PassStatistics> stats;
  EXPECT_FALSE(pm.run(ctx, stats));
  ASSERT_TRUE(r.diags.hasErrors());
  EXPECT_NE(r.diags.dump().find("verifier failed after pass 'corrupt'"), std::string::npos)
      << r.diags.dump();
  // The benign pass passed verification; only the corrupting one failed.
  EXPECT_EQ(stats.size(), 2u);
}

TEST(Pipeline, VerifyEachCatchesCorruptedRtl) {
  const Compiler c;
  const CompileResult good = c.compileSource(kFirSrc);
  ASSERT_TRUE(good.ok);

  CompileOptions opt;
  CompileResult r;
  PassContext ctx(opt, r);
  r.module = good.module;

  PipelineOptions pipe;
  pipe.verifyEach = true;
  PassManager pm(pipe);
  pm.addPass({"corrupt-rtl", PassLayer::Rtl, [](PassContext& cx, PassStatistics&) {
                EXPECT_FALSE(cx.result.module.cells.empty());
                cx.result.module.cells[0].output = 999999; // dangling net id
                return true;
              }});
  std::vector<PassStatistics> stats;
  EXPECT_FALSE(pm.run(ctx, stats));
  EXPECT_TRUE(r.diags.hasErrors());
  EXPECT_NE(r.diags.dump().find("internal"), std::string::npos);
}

TEST(Pipeline, RtlVerifierRunsWithoutVerifyEach) {
  // build-rtl is marked alwaysVerify: the production driver verifies the
  // netlist on every compile, not only under --verify-each.
  const Compiler c;
  const PassManager pm = c.buildPipeline();
  bool found = false;
  for (const auto& p : pm.passes()) {
    if (p.name == "build-rtl") {
      EXPECT_TRUE(p.alwaysVerify);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Pipeline, HlirCountersMatchDirectTransformRuns) {
  // The pipeline's counters must equal what the legacy driver logged: the
  // same transforms applied in the same order to a fresh module.
  const Compiler c;
  const CompileResult r = c.compileSource(kHelperSrc);
  ASSERT_TRUE(r.ok) << r.diags.dump();

  DiagEngine diags;
  ast::Module m = ast::parse(kHelperSrc, diags);
  ASSERT_TRUE(ast::analyze(m, diags));
  const int luts = hlir::convertCallsToLookupTables(m, diags, 10);
  const int inlined = hlir::inlineCalls(m, diags);
  const int folded = hlir::constantFold(m, diags);
  ast::Function* kernel = m.findFunction("k");
  ASSERT_NE(kernel, nullptr);
  const int fused = hlir::fuseAdjacentLoops(m, *kernel, diags);
  ASSERT_FALSE(diags.hasErrors());

  EXPECT_EQ(findPass(r.passLog, "lut-convert")->counter("lut-converted"), luts);
  EXPECT_EQ(findPass(r.passLog, "inline")->counter("inlined"), inlined);
  EXPECT_EQ(findPass(r.passLog, "const-fold")->counter("folded"), folded);
  EXPECT_EQ(findPass(r.passLog, "fuse-loops")->counter("fused"), fused);
  EXPECT_GT(findPass(r.passLog, "inline")->counter("inlined"), 0);
}

TEST(Pipeline, DatapathCountersMatchLegacyPassLogValues) {
  // The legacy passLog recorded the DataPath statistics fields verbatim;
  // the typed counters must carry the same numbers.
  const Compiler c;
  const CompileResult r = c.compileSource(kFirSrc);
  ASSERT_TRUE(r.ok);
  const PassStatistics* dp = findPass(r.passLog, "build-datapath");
  ASSERT_NE(dp, nullptr);
  EXPECT_EQ(dp->counter("soft-nodes"), r.datapath.softNodeCount);
  EXPECT_EQ(dp->counter("hard-nodes"), r.datapath.hardNodeCount);
  EXPECT_EQ(dp->counter("stages"), r.datapath.stageCount);
  EXPECT_EQ(dp->counter("narrowed-bits"), r.datapath.narrowedBits);
  EXPECT_EQ(dp->counter("pipeline-register-bits"), r.datapath.pipelineRegisterBits);
}

TEST(Pipeline, StatsJsonShape) {
  const Compiler c;
  const CompileResult r = c.compileSource(kFirSrc);
  ASSERT_TRUE(r.ok);
  const std::string json = statsToJson(r.passLog);

  // Golden structural checks: the two top-level keys, one object per pass
  // with the name/layer/wallMs/ran/counters fields, balanced braces.
  EXPECT_NE(json.find("\"passes\": ["), std::string::npos);
  EXPECT_NE(json.find("\"totalMs\":"), std::string::npos);
  for (const auto& s : r.passLog) {
    EXPECT_NE(json.find("\"name\": \"" + s.name + "\""), std::string::npos) << s.name;
  }
  EXPECT_NE(json.find("\"layer\": \"hlir\""), std::string::npos);
  EXPECT_NE(json.find("\"wallMs\": "), std::string::npos);
  EXPECT_NE(json.find("\"ran\": true"), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"stages\": "), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['), std::count(json.begin(), json.end(), ']'));
}

TEST(Pipeline, StatsJsonEscapesControlCharactersInNames) {
  PassStatistics s;
  s.name = "pass\r\x01";
  s.ran = true;
  s.add("counter\r\x01", 7);
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(statsToJson({s}), doc, error)) << error;
  const json::Value& pass = doc.find("passes")->items().front();
  EXPECT_EQ(pass.find("name")->asString(), "pass\r\x01");
  EXPECT_EQ(pass.find("counters")->find("counter\r\x01")->asInt(), 7);
}

TEST(Pipeline, PrintAfterCapturesRequestedSnapshots) {
  CompileOptions opt;
  opt.pipeline.printAfter = {"ssa-build"};
  const Compiler c(opt);
  const CompileResult r = c.compileSource(kFirSrc);
  ASSERT_TRUE(r.ok);
  for (const auto& s : r.passLog) {
    if (s.name == "ssa-build") {
      EXPECT_NE(s.snapshot.find("bb0:"), std::string::npos);
    } else {
      EXPECT_TRUE(s.snapshot.empty()) << s.name;
    }
  }
}

TEST(Pipeline, PrintAfterAllCapturesEverySnapshot) {
  CompileOptions opt;
  opt.pipeline.printAfterAll = true;
  const Compiler c(opt);
  const CompileResult r = c.compileSource(kFirSrc);
  ASSERT_TRUE(r.ok);
  for (const auto& s : r.passLog) {
    EXPECT_FALSE(s.snapshot.empty()) << s.name;
  }
}

TEST(Pipeline, StaleKernelPointerIsImpossibleByConstruction) {
  // The context resolves the kernel by name at every call; after a
  // transform invalidates function storage, kernel() still resolves.
  CompileOptions opt;
  CompileResult r;
  PassContext ctx(opt, r);
  ctx.source = kHelperSrc;
  DiagEngine scratch;
  ctx.module = ast::parse(kHelperSrc, scratch);
  ASSERT_TRUE(ast::analyze(ctx.module, scratch));
  ctx.kernelName = "k";
  ast::Function* before = ctx.kernel();
  ASSERT_NE(before, nullptr);
  ASSERT_GT(hlir::inlineCalls(ctx.module, scratch), 0);
  ASSERT_FALSE(scratch.hasErrors());
  ast::Function* after = ctx.kernel();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->name, "k");
}

} // namespace
} // namespace roccc
