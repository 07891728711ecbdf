#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "dp/datapath.hpp"
#include "dp/eval.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/kernel.hpp"
#include "mir/exec.hpp"
#include "mir/lower.hpp"
#include "mir/passes.hpp"
#include "mir/ssa.hpp"
#include "support/strings.hpp"

namespace roccc::dp {
namespace {

using mir::FunctionIR;
using mir::Opcode;

ast::Module buildModule(const std::string& src) {
  DiagEngine diags;
  ast::Module m = ast::parse(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  EXPECT_TRUE(ast::analyze(m, diags)) << diags.dump();
  return m;
}

FunctionIR toSsaMir(const std::string& src, const std::string& fn, bool optimize = true) {
  ast::Module m = buildModule(src);
  FunctionIR f;
  DiagEngine diags;
  EXPECT_TRUE(mir::lowerToMir(m, fn, f, diags)) << diags.dump();
  mir::canonicalizeSideEffects(f);
  mir::buildSSA(f);
  if (optimize) mir::runStandardPasses(f);
  return f;
}

DataPath buildDp(const FunctionIR& f, BuildOptions opt = {}) {
  DataPath dp;
  DiagEngine diags;
  EXPECT_TRUE(buildDataPath(f, dp, diags, opt)) << diags.dump();
  return dp;
}

std::vector<Value> inputsOf(const FunctionIR& f, const std::vector<int64_t>& vals) {
  std::vector<Value> in;
  size_t vi = 0;
  for (const auto& p : f.params) {
    if (!p.isOutput) in.push_back(Value::fromInt(p.type, vals.at(vi++)));
  }
  return in;
}

const char* kIfElseSrc = R"(
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
)";

// --- structure (paper Fig 6) -------------------------------------------------

TEST(DpStructure, IfElseHasMuxAndPipeHardNodes) {
  FunctionIR f = toSsaMir(kIfElseSrc, "if_else", /*optimize=*/false);
  DataPath dp = buildDp(f);
  int softs = 0, muxes = 0, pipes = 0;
  for (const auto& n : dp.nodes) {
    switch (n.kind) {
      case NodeKind::Soft: ++softs; break;
      case NodeKind::Mux: ++muxes; break;
      case NodeKind::Pipe: ++pipes; break;
    }
  }
  // Paper Fig 6: soft nodes 1-4 plus one mux (node 7) and one pipe (node 6).
  EXPECT_EQ(softs, 4);
  EXPECT_EQ(muxes, 1);
  EXPECT_EQ(pipes, 1);
  EXPECT_EQ(dp.softNodeCount, 4);
  EXPECT_EQ(dp.hardNodeCount, 2);
  EXPECT_GE(dp.muxOpCount, 1); // at least 'a' merges
}

TEST(DpStructure, StraightLineHasNoHardNodes) {
  FunctionIR f = toSsaMir("void dp(int a, int b, int* o) { *o = a * b + a; }", "dp");
  DataPath dp = buildDp(f);
  EXPECT_EQ(dp.hardNodeCount, 0);
  EXPECT_EQ(dp.muxOpCount, 0);
}

TEST(DpStructure, DumpStructureMentionsNodes) {
  FunctionIR f = toSsaMir(kIfElseSrc, "if_else", false);
  DataPath dp = buildDp(f);
  const std::string s = dp.dumpStructure();
  EXPECT_NE(s.find("mux"), std::string::npos) << s;
  EXPECT_NE(s.find("pipe"), std::string::npos) << s;
  EXPECT_NE(s.find("->"), std::string::npos) << s;
}

// --- behavior: dp evaluation equals MIR execution ------------------------------

void expectEquivalent(const std::string& src, const std::string& fn,
                      const std::vector<std::vector<int64_t>>& inputSets, BuildOptions opt = {}) {
  FunctionIR f = toSsaMir(src, fn);
  DataPath dp = buildDp(f, opt);
  for (const auto& vals : inputSets) {
    const auto mirResult = mir::execute(f, inputsOf(f, vals), {});
    const auto dpResult = evaluate(dp, inputsOf(f, vals), {});
    ASSERT_EQ(mirResult.outputs.size(), dpResult.outputs.size());
    for (size_t i = 0; i < mirResult.outputs.size(); ++i) {
      EXPECT_EQ(mirResult.outputs[i].toInt(), dpResult.outputs[i].toInt())
          << "output " << i << " inputs " << join([&] {
               std::vector<std::string> s;
               for (auto v : vals) s.push_back(std::to_string(v));
               return s;
             }(), ",") << "\n" << dp.dump();
    }
  }
}

TEST(DpBehavior, IfElseMatchesMir) {
  std::vector<std::vector<int64_t>> sets;
  for (int a = -6; a <= 6; a += 3) {
    for (int b = -6; b <= 6; b += 2) sets.push_back({a, b});
  }
  expectEquivalent(kIfElseSrc, "if_else", sets);
}

TEST(DpBehavior, PaperValues) {
  FunctionIR f = toSsaMir(kIfElseSrc, "if_else");
  DataPath dp = buildDp(f);
  const auto r = evaluate(dp, inputsOf(f, {9, 2}), {});
  EXPECT_EQ(r.outputs[0].toInt(), -14);
  EXPECT_EQ(r.outputs[1].toInt(), 21);
}

// The evaluator orders ops once with a ready-loop, so stored op order is
// free; an op that can never become ready is an error on every call.
TEST(DpBehavior, EvaluatorOrdersOpsAndRejectsCycles) {
  FunctionIR f = toSsaMir(kIfElseSrc, "if_else");
  DataPath dp = buildDp(f);
  DataPath reversed = dp;
  std::reverse(reversed.ops.begin(), reversed.ops.end());
  Evaluator inOrder(dp), outOfOrder(reversed);
  for (const auto& set : std::vector<std::vector<int64_t>>{{9, 2}, {-6, 4}, {0, 0}}) {
    const std::vector<Value> in = inputsOf(f, set);
    const std::vector<Value> want = inOrder.run(in, {}).outputs;
    EXPECT_EQ(outOfOrder.run(in, {}).outputs, want);
    EXPECT_EQ(evaluate(dp, in, {}).outputs, want);
  }

  DataPath cyclic = dp;
  for (auto& o : cyclic.ops) {
    if (!o.operands.empty() && o.result >= 0) {
      o.operands[0] = o.result;
      break;
    }
  }
  Evaluator ev(cyclic);
  for (int call = 0; call < 2; ++call) {
    try {
      ev.run(inputsOf(f, {9, 2}), {});
      ADD_FAILURE() << "a self-dependent op evaluated";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("dependency cycle"), std::string::npos) << e.what();
    }
  }
}

TEST(DpBehavior, NestedBranches) {
  const char* src = R"(
    void dp(int a, int b, int* o) {
      int r;
      if (a < b) {
        if (a < 0) { r = -a; } else { r = a * 2; }
      } else {
        r = b + 1;
      }
      *o = r;
    }
  )";
  std::vector<std::vector<int64_t>> sets;
  for (int a = -5; a <= 5; a += 2) {
    for (int b = -5; b <= 5; b += 3) sets.push_back({a, b});
  }
  expectEquivalent(src, "dp", sets);
}

TEST(DpBehavior, ConditionalOutputWrites) {
  const char* src = R"(
    void dp(int a, int* o) {
      if (a < 0) { *o = -a; } else { *o = a * 3; }
    }
  )";
  expectEquivalent(src, "dp", {{-7}, {0}, {7}});
}

TEST(DpBehavior, NarrowTypesAndDivision) {
  const char* src = R"(
    void dp(uint8 n, uint8 d, uint8* q, uint8* r) {
      *q = n / d;
      *r = n % d;
    }
  )";
  std::vector<std::vector<int64_t>> sets = {{200, 7}, {255, 1}, {13, 255}, {42, 0}, {0, 5}};
  expectEquivalent(src, "dp", sets);
}

TEST(DpBehavior, FeedbackAccumulator) {
  FunctionIR f = toSsaMir(R"(
    int32 sum = 10;
    void acc_dp(int32 A0, int32* out) {
      int32 t;
      t = ROCCC_load_prev(sum) + A0;
      ROCCC_store2next(sum, t);
      *out = t;
    }
  )", "acc_dp");
  DataPath dp = buildDp(f);
  ASSERT_EQ(dp.feedbacks.size(), 1u);
  EXPECT_GE(dp.feedbacks[0].lprValue, 0);
  EXPECT_GE(dp.feedbacks[0].snxValue, 0);
  std::map<std::string, Value> fb;
  int64_t expect = 10;
  for (int t = 0; t < 5; ++t) {
    const auto r = evaluate(dp, {Value::ofInt(t + 1)}, fb);
    expect += t + 1;
    EXPECT_EQ(r.outputs[0].toInt(), expect);
    fb = r.nextFeedback;
  }
}

// --- pipelining (paper 4.2.3) ---------------------------------------------------

TEST(DpPipeline, DeepExpressionSplitsIntoStages) {
  // Chain of multiplies: far beyond one 6 ns stage.
  FunctionIR f = toSsaMir(R"(
    void dp(int16 a, int16 b, int* o) {
      *o = ((a * b) * (a + b)) * ((a - b) * (a + 3)) + a;
    }
  )", "dp");
  DataPath dp = buildDp(f);
  EXPECT_GE(dp.stageCount, 2) << dp.dump();
  // Pipeline registers were inserted.
  EXPECT_GT(dp.pipelineRegisterBits, 0);
}

TEST(DpPipeline, NoPipelineOptionKeepsSingleStage) {
  FunctionIR f = toSsaMir(R"(
    void dp(int16 a, int16 b, int* o) {
      *o = ((a * b) * (a + b)) * ((a - b) * (a + 3)) + a;
    }
  )", "dp");
  BuildOptions opt;
  opt.pipeline = false;
  DataPath dp = buildDp(f, opt);
  EXPECT_EQ(dp.stageCount, 1);
}

TEST(DpPipeline, FeedbackLoopStaysInOneStage) {
  // Multiply-accumulate: LPR -> add -> SNX must close in a single stage
  // even though mul+add exceed the target stage delay.
  FunctionIR f = toSsaMir(R"(
    int32 acc = 0;
    void mac_dp(int12 a, int12 b, int32* out) {
      int32 t;
      t = ROCCC_load_prev(acc) + a * b;
      ROCCC_store2next(acc, t);
      *out = t;
    }
  )", "mac_dp");
  BuildOptions opt;
  opt.targetStageDelayNs = 2.0; // force aggressive pipelining
  DataPath dp = buildDp(f, opt);
  // The add feeding SNX and the LPR read share a stage.
  const int lprDef = dp.values[static_cast<size_t>(dp.feedbacks[0].lprValue)].def;
  const int snxDef = dp.values[static_cast<size_t>(dp.feedbacks[0].snxValue)].def;
  ASSERT_GE(lprDef, 0);
  ASSERT_GE(snxDef, 0);
  EXPECT_EQ(dp.ops[static_cast<size_t>(lprDef)].stage, dp.ops[static_cast<size_t>(snxDef)].stage)
      << dp.dump();
  // Behavior is still a correct MAC across iterations.
  std::map<std::string, Value> fb;
  int64_t expect = 0;
  for (int i = 1; i <= 4; ++i) {
    const auto r = evaluate(dp, {Value::fromInt(ScalarType::make(12, true), i),
                                 Value::fromInt(ScalarType::make(12, true), i + 1)}, fb);
    expect += i * (i + 1);
    EXPECT_EQ(r.outputs[0].toInt(), expect);
    fb = r.nextFeedback;
  }
}

TEST(DpPipeline, StageMonotoneAlongDependencies) {
  FunctionIR f = toSsaMir(kIfElseSrc, "if_else");
  DataPath dp = buildDp(f);
  for (const auto& o : dp.ops) {
    for (int vid : o.operands) {
      const DpValue& v = dp.values[static_cast<size_t>(vid)];
      if (v.def < 0) continue;
      if (dp.ops[static_cast<size_t>(v.def)].op == Opcode::Ldc) continue;
      EXPECT_LE(dp.ops[static_cast<size_t>(v.def)].stage, o.stage) << dp.dump();
    }
  }
}

TEST(DpPipeline, TighterTargetMeansMoreStages) {
  const char* src = R"(
    void dp(int16 a, int16 b, int* o) {
      *o = (a * b + a) * (a - b) + (b * b - a) * (a + b);
    }
  )";
  FunctionIR f1 = toSsaMir(src, "dp");
  BuildOptions loose;
  loose.targetStageDelayNs = 50.0;
  BuildOptions tight;
  tight.targetStageDelayNs = 3.0;
  DataPath dpLoose = buildDp(f1, loose);
  DataPath dpTight = buildDp(f1, tight);
  EXPECT_LT(dpLoose.stageCount, dpTight.stageCount);
  // Same results either way.
  for (int a = -3; a <= 3; a += 3) {
    for (int b = -2; b <= 2; b += 2) {
      const auto in = inputsOf(f1, {a, b});
      EXPECT_EQ(evaluate(dpLoose, in, {}).outputs[0].toInt(),
                evaluate(dpTight, in, {}).outputs[0].toInt());
    }
  }
}

// --- bit-width inference (paper 4.2.4 / 5) ----------------------------------------

TEST(DpWidths, FirInferenceNarrowsSignals) {
  // 3*A0 with A0:int16 needs 18 bits, not 32.
  FunctionIR f = toSsaMir(R"(
    void fir_dp(int16 A0, int16 A1, int16 A2, int16 A3, int16 A4, int16* out) {
      *out = 3*A0 + 5*A1 + 7*A2 + 9*A3 - A4;
    }
  )", "fir_dp");
  DataPath dp = buildDp(f);
  EXPECT_GT(dp.narrowedBits, 0);
  for (const auto& v : dp.values) {
    if (v.def >= 0 && dp.ops[static_cast<size_t>(v.def)].op == Opcode::Ldc) continue;
    EXPECT_LE(v.width, 22) << v.name << " unexpectedly wide\n" << dp.dump();
  }
}

TEST(DpWidths, ComparisonsAreOneBit) {
  FunctionIR f = toSsaMir("void dp(int a, int b, int* o) { if (a < b) { *o = 1; } else { *o = 0; } }", "dp");
  DataPath dp = buildDp(f);
  bool sawCmp = false;
  for (const auto& o : dp.ops) {
    if (o.op == Opcode::Slt) {
      sawCmp = true;
      EXPECT_EQ(dp.values[static_cast<size_t>(o.result)].width, 1);
    }
  }
  EXPECT_TRUE(sawCmp);
}

TEST(DpWidths, LutRangeBoundsOutputWidth) {
  FunctionIR f = toSsaMir(R"(
    const int16 T[4] = {0, 5, 9, 12};
    void dp(uint2 i, int16* o) { *o = ROCCC_lookup(T, i); }
  )", "dp");
  DataPath dp = buildDp(f);
  for (const auto& o : dp.ops) {
    if (o.op == Opcode::Lut) {
      EXPECT_LE(dp.values[static_cast<size_t>(o.result)].width, 5); // max 12 -> 4..5 bits
    }
  }
}

TEST(DpWidths, InferenceDisabledKeepsDeclaredWidths) {
  FunctionIR f = toSsaMir("void dp(int8 a, int8 b, int* o) { *o = a + b; }", "dp");
  BuildOptions opt;
  opt.widthMode = BuildOptions::WidthMode::Declared;
  DataPath dp = buildDp(f, opt);
  EXPECT_EQ(dp.narrowedBits, 0);
}

// Property sweep: narrowing never changes results across a range of kernels.
class WidthSoundness : public ::testing::TestWithParam<const char*> {};

TEST_P(WidthSoundness, NarrowedEqualsDeclared) {
  const std::string src = GetParam();
  FunctionIR f = toSsaMir(src, "dp");
  BuildOptions narrow;
  BuildOptions wide;
  wide.widthMode = BuildOptions::WidthMode::Declared;
  DataPath dpN = buildDp(f, narrow);
  DataPath dpW = buildDp(f, wide);
  // Enumerate small input space: up to 2 inputs, try 25 combos.
  std::vector<const mir::FunctionIR::Param*> ins;
  for (const auto& p : f.params) {
    if (!p.isOutput) ins.push_back(&p);
  }
  std::vector<int64_t> probes = {-130, -7, -1, 0, 1, 3, 127, 255, 1000};
  std::vector<std::vector<int64_t>> sets;
  if (ins.size() == 1) {
    for (int64_t v : probes) sets.push_back({v});
  } else if (ins.size() == 2) {
    for (int64_t a : probes) {
      for (int64_t b : probes) sets.push_back({a, b});
    }
  }
  for (const auto& vals : sets) {
    const auto in = inputsOf(f, vals);
    const auto rn = evaluate(dpN, in, {});
    const auto rw = evaluate(dpW, in, {});
    for (size_t i = 0; i < rn.outputs.size(); ++i) {
      ASSERT_EQ(rn.outputs[i].toInt(), rw.outputs[i].toInt())
          << src << "\ninputs: " << vals[0] << (vals.size() > 1 ? "," + std::to_string(vals[1]) : "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, WidthSoundness,
    ::testing::Values(
        "void dp(int8 a, int8 b, int16* o) { *o = a * b; }",
        "void dp(int8 a, int8 b, int8* o) { *o = a + b; }",
        "void dp(uint8 a, uint8 b, uint8* o) { *o = (a + b) / 2; }",
        "void dp(int16 a, int* o) { *o = a * a - a; }",
        "void dp(uint8 a, uint8 b, uint8* o) { *o = a / b; }",
        "void dp(int8 a, int* o) { if (a < 0) { *o = -a; } else { *o = a; } }",
        "void dp(uint8 a, uint8* o) { *o = (a >> 3) + (a & 7); }",
        "void dp(int8 a, int8 b, int* o) { *o = (a << 4) - b * 100; }"));

// --- CSD constant multiplier decomposition (multiplier style LUT) ---------------

TEST(DpMultStyle, LutStyleDecomposesConstMultiplies) {
  const char* src = R"(
    void fir_dp(int16 A0, int16 A1, int16* out) {
      *out = 3*A0 + 5*A1;
    }
  )";
  FunctionIR f = toSsaMir(src, "fir_dp");
  BuildOptions lut;
  lut.multStyle = BuildOptions::MultStyle::Lut;
  BuildOptions m18;
  m18.multStyle = BuildOptions::MultStyle::Mult18;
  DataPath dpLut = buildDp(f, lut);
  DataPath dpM18 = buildDp(f, m18);
  int mulLut = 0, mulM18 = 0;
  for (const auto& o : dpLut.ops) {
    if (o.op == Opcode::Mul) ++mulLut;
  }
  for (const auto& o : dpM18.ops) {
    if (o.op == Opcode::Mul) ++mulM18;
  }
  EXPECT_EQ(mulLut, 0) << dpLut.dump();  // decomposed to shift-adds
  EXPECT_EQ(mulM18, 2) << dpM18.dump();  // kept as hardware multipliers
  // Same numbers either way.
  for (int a = -300; a <= 300; a += 77) {
    for (int b = -300; b <= 300; b += 91) {
      const std::vector<Value> in = {Value::fromInt(ScalarType::make(16, true), a),
                                     Value::fromInt(ScalarType::make(16, true), b)};
      EXPECT_EQ(evaluate(dpLut, in, {}).outputs[0].toInt(),
                evaluate(dpM18, in, {}).outputs[0].toInt());
    }
  }
}

TEST(DpMultStyle, CsdHandlesAwkwardConstants) {
  for (int64_t c : {7, 9, 23, 100, 255, -3, -45, 1, 0, 1023}) {
    const std::string src = fmt("void dp(int16 a, int* o) { *o = a * %0; }", c);
    FunctionIR f = toSsaMir(src, "dp");
    DataPath dp = buildDp(f); // default LUT style
    for (int a = -100; a <= 100; a += 33) {
      const auto r = evaluate(dp, {Value::fromInt(ScalarType::make(16, true), a)}, {});
      EXPECT_EQ(r.outputs[0].toInt(), a * c) << "c=" << c << " a=" << a << "\n" << dp.dump();
    }
  }
}

// --- stats -------------------------------------------------------------------------

TEST(DpStats, BalanceRegistersCountedForSkewedPaths) {
  // A value produced early and consumed late must be carried through
  // every intermediate stage (section 4.2.2 "adjoining" rule).
  FunctionIR f = toSsaMir(R"(
    void dp(int16 a, int16 b, int* o) {
      *o = ((((a * b) * (a + 1)) * (b + 1)) * (a + 2)) + b;
    }
  )", "dp");
  BuildOptions opt;
  opt.targetStageDelayNs = 4.0;
  DataPath dp = buildDp(f, opt);
  ASSERT_GE(dp.stageCount, 3) << dp.dump();
  EXPECT_GT(dp.balanceRegisterBits, 0) << dp.dump(); // 'b' skips stages
}

} // namespace
} // namespace roccc::dp
