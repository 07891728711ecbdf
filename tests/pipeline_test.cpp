// PassManager / pipeline tests: declared pass ordering, verify-each
// catching deliberately corrupted IR, per-pass statistics counters agreeing
// with the legacy free-text passLog values, and the --stats-json shape.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/transforms.hpp"
#include "roccc/compiler.hpp"
#include "support/json.hpp"
#include "synth/estimate.hpp"

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
      "build-datapath", "build-rtl",          "emit-vhdl",  "emit-verilog",
  };
  EXPECT_EQ(names, expected);
}

TEST(Pipeline, EveryRegisteredPassProducesOneStatsRecord) {
  CompileOptions opt;
  opt.emitVerilog = true; // the one pass a default compile skips
  const Compiler c(opt);
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

TEST(Pipeline, VerilogIsEmittedOnlyOnRequest) {
  const CompileResult plain = Compiler().compileSource(kFirSrc);
  ASSERT_TRUE(plain.ok) << plain.diags.dump();
  EXPECT_TRUE(plain.verilog.empty());
  const PassStatistics* skipped = findPass(plain.passLog, "emit-verilog");
  ASSERT_NE(skipped, nullptr);
  EXPECT_FALSE(skipped->ran);
  EXPECT_TRUE(skipped->counters.empty());

  CompileOptions opt;
  opt.emitVerilog = true;
  const CompileResult both = Compiler(opt).compileSource(kFirSrc);
  ASSERT_TRUE(both.ok) << both.diags.dump();
  EXPECT_FALSE(both.verilog.empty());
  EXPECT_TRUE(findPass(both.passLog, "emit-verilog")->ran);
  EXPECT_EQ(both.vhdl, plain.vhdl); // the VHDL does not depend on the request
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
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(statsToJson(r.passLog).pretty(), doc, error)) << error;

  // Two top-level members, in order; no timing block was given.
  ASSERT_TRUE(doc.isObject());
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "passes");
  EXPECT_EQ(doc.members()[1].first, "totalMs");
  ASSERT_TRUE(doc.find("totalMs")->isNumber());
  // One record per pass, in pipeline order, each member typed.
  const json::Value& passes = *doc.find("passes");
  ASSERT_TRUE(passes.isArray());
  ASSERT_EQ(passes.items().size(), r.passLog.size());
  double totalMs = 0;
  for (size_t i = 0; i < r.passLog.size(); ++i) {
    const PassStatistics& s = r.passLog[i];
    const json::Value& pass = passes.items()[i];
    SCOPED_TRACE(s.name);
    ASSERT_TRUE(pass.isObject());
    const json::Value* name = pass.find("name");
    const json::Value* layer = pass.find("layer");
    const json::Value* wallMs = pass.find("wallMs");
    const json::Value* ran = pass.find("ran");
    const json::Value* counters = pass.find("counters");
    ASSERT_TRUE(name && name->isString());
    ASSERT_TRUE(layer && layer->isString());
    ASSERT_TRUE(wallMs && wallMs->isNumber());
    ASSERT_TRUE(ran && ran->isBool());
    ASSERT_TRUE(counters && counters->isObject());
    EXPECT_EQ(name->asString(), s.name);
    EXPECT_EQ(layer->asString(), passLayerName(s.layer));
    EXPECT_EQ(wallMs->asDouble(), s.wallMs);
    EXPECT_EQ(ran->asBool(), s.ran);
    ASSERT_EQ(counters->members().size(), s.counters.size());
    for (size_t c = 0; c < s.counters.size(); ++c) {
      EXPECT_EQ(counters->members()[c].first, s.counters[c].first);
      ASSERT_TRUE(counters->members()[c].second.isIntegral());
      EXPECT_EQ(counters->members()[c].second.asInt(), s.counters[c].second);
    }
    totalMs += s.wallMs;
  }
  EXPECT_EQ(doc.find("totalMs")->asDouble(), totalMs);
  EXPECT_EQ(findPass(r.passLog, "build-datapath")->counter("stages"), r.datapath.stageCount);
}

TEST(Pipeline, StatsJsonKeepsTheDoublesTheCompileUsed) {
  // roccc-cc --target-ns 3.1234567 --stats-json once wrote "targetNs":
  // 3.12346 (six significant digits), so the report did not record the
  // target the compile used. Every double now reads back exactly.
  std::ifstream in(std::string(ROCCC_CORPUS_DIR) + "/sad4.c");
  ASSERT_TRUE(in.good());
  std::ostringstream source;
  source << in.rdbuf();
  CompileOptions opt;
  opt.dpOptions.targetStageDelayNs = 3.1234567;
  const CompileResult r = Compiler(opt).compileSource(source.str());
  ASSERT_TRUE(r.ok) << r.diags.dump();
  const synth::Report est =
      synth::estimate(r.module, synth::EstimateOptions::forModel(synth::TimingModel::virtex2()));

  // The document roccc-cc writes for this compile.
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(statsToJson(r.passLog, timingToJson(r, 3.1234567, est)).pretty(), doc,
                          error))
      << error;
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.members()[1].first, "timing"); // between passes and totalMs
  const json::Value& t = *doc.find("timing");
  EXPECT_EQ(t.find("targetNs")->asDouble(), 3.1234567);
  EXPECT_EQ(t.find("stages")->asInt(), r.datapath.stageCount);
  EXPECT_EQ(t.find("worstStageNs")->asDouble(), r.datapath.timing.worstStageNs);
  EXPECT_EQ(t.find("criticalPathNs")->asDouble(), est.criticalPathNs);
  EXPECT_EQ(t.find("fmaxMHz")->asDouble(), est.fmaxMHz());
  EXPECT_EQ(t.find("slackNs")->asDouble(), r.datapath.timing.slackNs);
  EXPECT_EQ(t.find("feasible")->asBool(), r.datapath.timing.feasible);
  const json::Value& e = *t.find("energy");
  EXPECT_EQ(e.find("dynamicPjPerCycle")->asDouble(), est.dynamicPjPerCycle);
  EXPECT_EQ(e.find("leakageMw")->asDouble(), est.leakageMw);
  EXPECT_EQ(e.find("edpPjNs")->asDouble(), est.edpPjNs());
  for (const auto& pass : doc.find("passes")->items()) {
    EXPECT_EQ(pass.find("wallMs")->asDouble(),
              findPass(r.passLog, pass.find("name")->asString())->wallMs);
  }
}

TEST(Pipeline, StatsJsonEscapesControlCharactersInNames) {
  PassStatistics s;
  s.name = "pass\r\x01";
  s.ran = true;
  s.add("counter\r\x01", 7);
  json::Value doc;
  std::string error;
  ASSERT_TRUE(json::parse(statsToJson({s}).pretty(), doc, error)) << error;
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
  opt.emitVerilog = true; // so every pass runs
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
