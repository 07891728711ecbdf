// synth::TimingModel unit tests plus the estimator-side regression suite:
// the built-in Virtex-II-class rows match their closed forms, model files
// parse/dump/round-trip with line-numbered errors, dp staging delegates to
// the same table, operand-width-aware cell costing behaves (the
// compare/mux-chain fix), and the Table 1 slice counts are pinned so any
// cost-table drift shows up as a reviewable diff of expectations.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "dp/datapath.hpp"
#include "roccc/compiler.hpp"
#include "synth/estimate.hpp"
#include "synth/timing.hpp"

namespace roccc {
namespace {

using synth::Primitive;
using synth::PrimitiveCost;
using synth::TimingModel;

TEST(TimingModel, BuiltinRowsMatchClosedForms) {
  const TimingModel& m = TimingModel::virtex2();
  for (int w : {1, 8, 12, 18, 32, 64}) {
    EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Add, w), 0.62 + 0.042 * w) << w;
    EXPECT_DOUBLE_EQ(m.cost(Primitive::Add, w).lut4, w) << w;
    EXPECT_DOUBLE_EQ(m.delayNs(Primitive::MulLut, w), 2.8 + 0.11 * w) << w;
    EXPECT_DOUBLE_EQ(m.cost(Primitive::MulLut, w).lut4, 0.55 * w * w) << w;
    EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Mul18, w), w <= 18 ? 4.9 : 8.5) << w;
    const double blocks = static_cast<double>((w + 16) / 17) * ((w + 16) / 17);
    EXPECT_DOUBLE_EQ(m.cost(Primitive::Mul18, w).mult18, blocks) << w;
    EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Cmp, w), 0.55 + 0.035 * w) << w;
    EXPECT_DOUBLE_EQ(m.cost(Primitive::Cmp, w).lut4, (w + 1) / 2 + 1) << w;
    EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Mux, w), 0.5) << w;
    EXPECT_DOUBLE_EQ(m.cost(Primitive::Reg, w).ff, w) << w;
  }
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Rom, 8), 2.0);
}

TEST(TimingModel, BuiltinEnergyDerivesFromCapacitances) {
  const TimingModel& m = TimingModel::virtex2();
  const PrimitiveCost add32 = m.cost(Primitive::Add, 32);
  // 32 LUTs * 4 pF * 1.5V^2 = 288 pJ; leakage 32 * 1.5 uW.
  EXPECT_DOUBLE_EQ(add32.dynamicPj, 32 * 4.0 * 1.5 * 1.5);
  EXPECT_DOUBLE_EQ(add32.leakageUw, 32 * 1.5);
  const PrimitiveCost reg16 = m.cost(Primitive::Reg, 16);
  EXPECT_DOUBLE_EQ(reg16.dynamicPj, 16 * 2.0 * 1.5 * 1.5);
  EXPECT_DOUBLE_EQ(reg16.leakageUw, 16 * 0.8);
}

TEST(TimingModel, InterpolatesBetweenBreakpointsAndClampsOutside) {
  TimingModel m;
  std::string err;
  ASSERT_TRUE(TimingModel::parse("add 8 1.0 0 8 0\nadd 16 3.0 0 24 0\n", m, err)) << err;
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Add, 8), 1.0);
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Add, 16), 3.0);
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Add, 12), 2.0);        // midway
  EXPECT_DOUBLE_EQ(m.cost(Primitive::Add, 12).lut4, 16.0);     // midway
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Add, 2), 1.0);         // clamp below
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Add, 64), 3.0);        // clamp above
  // Untouched primitives keep the dense built-in rows.
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Cmp, 32), 0.55 + 0.035 * 32);
}

TEST(TimingModel, EmptySpecYieldsBuiltinTable) {
  TimingModel m;
  std::string err;
  ASSERT_TRUE(TimingModel::parse("", m, err)) << err;
  EXPECT_EQ(m.name, TimingModel::virtex2().name);
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::MulLut, 12), TimingModel::virtex2().delayNs(Primitive::MulLut, 12));
}

TEST(TimingModel, FirstRowForAPrimitiveDiscardsItsBuiltins) {
  TimingModel m;
  std::string err;
  ASSERT_TRUE(TimingModel::parse("add 32 9.0 0 99 0\n", m, err)) << err;
  // Only one row left for add: every width clamps to it.
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Add, 1), 9.0);
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Add, 64), 9.0);
  EXPECT_EQ(m.rows[static_cast<size_t>(Primitive::Add)].size(), 1u);
}

TEST(TimingModel, ScalarDirectivesOverride) {
  TimingModel m;
  std::string err;
  const std::string spec = "model cold-device\n"
                           "clock-overhead-ns 1.25\n"
                           "routing-per-hop-ns 0.9\n"
                           "core-voltage 1.0\n"
                           "cap-lut-pf 2.0\n";
  ASSERT_TRUE(TimingModel::parse(spec, m, err)) << err;
  EXPECT_EQ(m.name, "cold-device");
  EXPECT_DOUBLE_EQ(m.clockOverheadNs, 1.25);
  EXPECT_DOUBLE_EQ(m.routingPerHopNs, 0.9);
  // resourceDynamicPj follows the new scalars: 1 LUT * 2 pF * 1.0V^2.
  EXPECT_DOUBLE_EQ(m.resourceDynamicPj(1, 0, 0, 0), 2.0);
}

TEST(TimingModel, ExplicitEnergyColumnsWinOverDerivation) {
  TimingModel m;
  std::string err;
  ASSERT_TRUE(TimingModel::parse("add 32 1.0 0 32 0 0 0 7.5 1.25\n", m, err)) << err;
  EXPECT_DOUBLE_EQ(m.cost(Primitive::Add, 32).dynamicPj, 7.5);
  EXPECT_DOUBLE_EQ(m.cost(Primitive::Add, 32).leakageUw, 1.25);
}

// Energy columns a row does not state are derived from the model's final
// scalars, whether the scalar line comes before or after the row, and the
// built-in rows follow them too. Dynamic energy is C·V², so doubling the
// core voltage multiplies it by exactly 4.
TEST(TimingModel, ScalarsReachEveryDerivedEnergyColumn) {
  const TimingModel& built = TimingModel::virtex2();
  TimingModel hot, rowFirst, stated;
  std::string err;
  ASSERT_TRUE(TimingModel::parse("core-voltage 3.0\n", hot, err)) << err;
  ASSERT_TRUE(TimingModel::parse("add 32 1.0 0 32 0\ncore-voltage 3.0\n", rowFirst, err)) << err;
  ASSERT_TRUE(TimingModel::parse("add 32 1.0 0 32 0 0 0 7.5 1.25\ncore-voltage 3.0\n", stated, err))
      << err;
  for (const Primitive p : {Primitive::Add, Primitive::Logic, Primitive::Mul18, Primitive::Reg}) {
    EXPECT_EQ(hot.cost(p, 16).dynamicPj, 4 * built.cost(p, 16).dynamicPj) << synth::primitiveName(p);
    EXPECT_EQ(hot.cost(p, 16).leakageUw, built.cost(p, 16).leakageUw) << synth::primitiveName(p);
  }
  EXPECT_DOUBLE_EQ(rowFirst.cost(Primitive::Add, 32).dynamicPj, 32 * built.capLutPf * 9.0);
  EXPECT_EQ(rowFirst.cost(Primitive::Logic, 8).dynamicPj, 4 * built.cost(Primitive::Logic, 8).dynamicPj);
  EXPECT_DOUBLE_EQ(stated.cost(Primitive::Add, 32).dynamicPj, 7.5); // stated columns stay
}

TEST(TimingModel, DumpParsesBackIdentically) {
  const TimingModel& built = TimingModel::virtex2();
  TimingModel round;
  std::string err;
  ASSERT_TRUE(TimingModel::parse(built.dump(), round, err)) << err;
  EXPECT_EQ(round.name, built.name);
  const auto scalars = [](const TimingModel& m) {
    return std::vector<double>{m.clockOverheadNs, m.routingPerHopNs, m.coreVoltage,
                               m.bramAccessNs,    m.romMuxLevelNs,   m.capLutPf,
                               m.capFfPf,         m.capMult18Pf,     m.capBramPf,
                               m.leakLutUw,       m.leakFfUw,        m.leakMult18Uw,
                               m.leakBramUw};
  };
  EXPECT_EQ(scalars(round), scalars(built));
  for (int p = 0; p < synth::kPrimitiveCount; ++p) {
    const auto& want = built.rows[static_cast<size_t>(p)];
    const auto& got = round.rows[static_cast<size_t>(p)];
    ASSERT_EQ(got.size(), want.size()) << p;
    for (const auto& [w, r] : want) {
      ASSERT_EQ(got.count(w), 1u) << p << ' ' << w;
      const PrimitiveCost& g = got.at(w);
      EXPECT_EQ(g.latencyCycles, r.latencyCycles) << p << ' ' << w;
      EXPECT_EQ((std::vector<double>{g.delayNs, g.lut4, g.ff, g.mult18, g.bram, g.dynamicPj,
                                     g.leakageUw}),
                (std::vector<double>{r.delayNs, r.lut4, r.ff, r.mult18, r.bram, r.dynamicPj,
                                     r.leakageUw}))
          << p << ' ' << w;
    }
  }
}

TEST(TimingModel, ParseErrorsCarryLineNumbers) {
  TimingModel m;
  std::string err;
  EXPECT_FALSE(TimingModel::parse("model x\nbogus-directive 3\n", m, err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("bogus-directive"), std::string::npos) << err;

  EXPECT_FALSE(TimingModel::parse("add 32 -1 0 32 0\n", m, err));
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find(">= 0"), std::string::npos) << err;

  EXPECT_FALSE(TimingModel::parse("add 0 1.0 0 32 0\n", m, err));
  EXPECT_NE(err.find("width out of range"), std::string::npos) << err;

  EXPECT_FALSE(TimingModel::parse("clock-overhead-ns banana\n", m, err));
  EXPECT_NE(err.find("numeric"), std::string::npos) << err;

  EXPECT_FALSE(TimingModel::parse("add 32 1.0 0 32 0 0 0 1 1 extra\n", m, err));
  EXPECT_NE(err.find("trailing garbage"), std::string::npos) << err;
}

// Each field is read as one whole token; a prefix that happens to parse is
// not accepted for it. Each form is rejected with its line number.
TEST(TimingModel, RejectsPartialAndLeftoverTokens) {
  const struct {
    const char* line;
    const char* message;
  } cases[] = {
      {"add 8.5 1.1 0 8 0", "'width' needs an integer, got '8.5'"},
      {"add 8 1.1 0.5 8 0", "'latency' needs an integer, got '0.5'"},
      {"add 8 1.1x 0 8 0", "'delay-ns' needs a numeric value, got '1.1x'"},
      {"add 8 inf 0 8 0", "'delay-ns' must be a finite number >= 0"},
      {"add 8 1.1 -1 8 0", "'latency' must be 0"},
      {"mul-lut 8 4.0 2 80 0", "'latency' must be 0"},
      {"add 32 1.1 0 8 0 nan 0", "'mult18' must be a finite number >= 0"},
      {"add 32 1.1 0 8 0 0 0 1 x", "'leak-uw' needs a numeric value, got 'x'"},
      {"add 32 1.1 0 8 0 1", "row needs:"},
      {"add 32 1.1 0 8 0 0 0 1", "row needs:"},
      {"clock-overhead-ns 0.8 garbage", "trailing garbage 'garbage'"},
      {"clock-overhead-ns 2x", "'clock-overhead-ns' needs a numeric value, got '2x'"},
      {"clock-overhead-ns nan", "'clock-overhead-ns' must be a finite number >= 0"},
      {"model slow extra", "trailing garbage 'extra'"},
      {"model", "'model' needs a name"},
      {"div 8 4.0 0 80 0", "unknown directive or primitive 'div'"},
  };
  for (const auto& c : cases) {
    TimingModel m;
    std::string err;
    EXPECT_FALSE(TimingModel::parse(std::string("# comment\nmodel ok\n") + c.line + "\n", m, err))
        << c.line;
    EXPECT_TRUE(err.starts_with(std::string("line 3: ") + c.message)) << c.line << ": " << err;
  }
}

TEST(TimingModel, AcceptsResourceColumnsWithoutEnergy) {
  TimingModel m;
  std::string err;
  ASSERT_TRUE(TimingModel::parse("mul18 16 5e0 0 0 0 1 0\n", m, err)) << err;
  EXPECT_DOUBLE_EQ(m.delayNs(Primitive::Mul18, 16), 5.0);
  EXPECT_DOUBLE_EQ(m.cost(Primitive::Mul18, 16).mult18, 1.0);
  EXPECT_DOUBLE_EQ(m.cost(Primitive::Mul18, 16).dynamicPj, 60.0 * 1.5 * 1.5);
}

TEST(TimingModel, PrimitiveNamesRoundTrip) {
  for (int p = 0; p < synth::kPrimitiveCount; ++p) {
    const auto prim = static_cast<Primitive>(p);
    Primitive back;
    ASSERT_TRUE(synth::primitiveByName(synth::primitiveName(prim), back));
    EXPECT_EQ(back, prim);
  }
  Primitive unused;
  EXPECT_FALSE(synth::primitiveByName("madd", unused));
  // Division is lowered to add/mux/cmp rows before any pricing: no row.
  EXPECT_FALSE(synth::primitiveByName("div", unused));
}

// --- dp staging delegates to the same table ---------------------------------

TEST(TimingModel, DpOpDelayDelegatesToBuiltinModel) {
  using dp::BuildOptions;
  const TimingModel& m = TimingModel::virtex2();
  for (int w : {8, 16, 32}) {
    EXPECT_DOUBLE_EQ(dp::opDelayNs(m, mir::Opcode::Add, w, BuildOptions::MultStyle::Lut),
                     m.delayNs(Primitive::Add, w));
    EXPECT_DOUBLE_EQ(dp::opDelayNs(m, mir::Opcode::Mul, w, BuildOptions::MultStyle::Lut),
                     m.delayNs(Primitive::MulLut, w));
    EXPECT_DOUBLE_EQ(dp::opDelayNs(m, mir::Opcode::Mul, w, BuildOptions::MultStyle::Mult18),
                     m.delayNs(Primitive::Mul18, w));
    EXPECT_DOUBLE_EQ(dp::opDelayNs(m, mir::Opcode::Slt, w, BuildOptions::MultStyle::Lut),
                     m.delayNs(Primitive::Cmp, w));
  }
}

// --- operand-width-aware cell costing (the compare/mux-chain fix) -----------

rtl::Module cmpModule(int operandWidth) {
  rtl::Module m;
  m.name = "cmp";
  const int a = m.addNet(ScalarType::make(operandWidth, true), "a");
  const int b = m.addNet(ScalarType::make(operandWidth, true), "b");
  m.inputPorts = {a, b};
  m.inputNames = {"a", "b"};
  const int o = m.addNet(ScalarType::make(1, false), "o");
  m.addCell(rtl::CellKind::Lt, {a, b}, o);
  m.outputPorts = {o};
  m.outputNames = {"o"};
  return m;
}

TEST(EstimateWidthFix, CompareIsCostedByOperandWidthNotResultWidth) {
  // A comparator's result is one bit; its carry chain spans the operands.
  // The old estimator priced the Lt cell by the 1-bit result, making an
  // 8-bit and a 32-bit compare cost the same.
  const auto narrow = synth::estimate(cmpModule(8));
  const auto wide = synth::estimate(cmpModule(32));
  EXPECT_GT(wide.res.lut4, narrow.res.lut4);
  EXPECT_GT(wide.criticalPathNs, narrow.criticalPathNs);
  const TimingModel& tm = TimingModel::virtex2();
  EXPECT_DOUBLE_EQ(wide.res.lut4, std::ceil(tm.cost(Primitive::Cmp, 32).lut4));
}

rtl::Module muxModule(int dataWidth, int outWidth) {
  rtl::Module m;
  m.name = "mux";
  const int sel = m.addNet(ScalarType::make(1, false), "sel");
  const int a = m.addNet(ScalarType::make(dataWidth, true), "a");
  const int b = m.addNet(ScalarType::make(dataWidth, true), "b");
  m.inputPorts = {sel, a, b};
  m.inputNames = {"sel", "a", "b"};
  const int o = m.addNet(ScalarType::make(outWidth, true), "o");
  m.addCell(rtl::CellKind::Mux, {sel, a, b}, o);
  m.outputPorts = {o};
  m.outputNames = {"o"};
  return m;
}

TEST(EstimateWidthFix, MuxIsCostedByDataWidthAndIgnoresSelect) {
  // A narrowing mux still steers its full-width data inputs; the 1-bit
  // select must not drag the width down.
  const auto narrowing = synth::estimate(muxModule(32, 8));
  EXPECT_DOUBLE_EQ(narrowing.res.lut4, 32.0);
  const auto plain = synth::estimate(muxModule(16, 16));
  EXPECT_DOUBLE_EQ(plain.res.lut4, 16.0);
}

TEST(EstimateWidthFix, EnergyFieldsArePopulated) {
  const auto rep = synth::estimate(cmpModule(16));
  EXPECT_GT(rep.dynamicPjPerCycle, 0.0);
  EXPECT_GT(rep.leakageMw, 0.0);
  EXPECT_GT(rep.energyPerCyclePj(), 0.0);
  EXPECT_GT(rep.edpPjNs(), rep.energyPerCyclePj()); // criticalPath > 1 ns here
}

TEST(EstimateWidthFix, EstimateHonorsTimingOverride) {
  TimingModel slow;
  std::string err;
  ASSERT_TRUE(TimingModel::parse("cmp 16 9.0 0 200 0\n", slow, err)) << err;
  synth::EstimateOptions eo;
  eo.timing = &slow;
  const auto rep = synth::estimate(cmpModule(16), eo);
  EXPECT_DOUBLE_EQ(rep.res.lut4, 200.0);
  EXPECT_GT(rep.criticalPathNs, 9.0);
}

// --- SRL16 inference -----------------------------------------------------------

/// `regs` plain registers (no enable) in a row behind 8-bit input `a`,
/// optionally behind a Not cell; the last register drives output `o`.
/// Returns the output nets of the registers in `regOuts`.
rtl::Module regChain(int regs, bool afterLogic, std::vector<int>* regOuts = nullptr) {
  rtl::Module m;
  m.name = "chain";
  const ScalarType t = ScalarType::make(8, false);
  int prev = m.addNet(t, "a");
  m.inputPorts = {prev};
  m.inputNames = {"a"};
  if (afterLogic) {
    const int n = m.addNet(t, "na");
    m.addCell(rtl::CellKind::Not, {prev}, n);
    prev = n;
  }
  for (int i = 0; i < regs; ++i) {
    const int q = m.addNet(t, "r" + std::to_string(i));
    m.addCell(rtl::CellKind::Reg, {prev}, q);
    if (regOuts) regOuts->push_back(q);
    prev = q;
  }
  m.outputPorts = {prev};
  m.outputNames = {"o"};
  return m;
}

TEST(Srl16Inference, TwoRegisterChainStaysInFlipFlops) {
  const auto rep = synth::estimate(regChain(2, false));
  EXPECT_EQ(rep.res.srl16, 0);
  EXPECT_EQ(rep.res.ff, 16);
  EXPECT_EQ(rep.slices, 8);
}

TEST(Srl16Inference, ThreeRegisterChainBecomesOneSrlPerBit) {
  const auto rep = synth::estimate(regChain(3, false));
  EXPECT_EQ(rep.res.srl16, 8); // depth 2 -> one SRL16 per bit
  EXPECT_EQ(rep.res.ff, 8);    // plus the output register
  EXPECT_EQ(rep.slices, 6);
  synth::EstimateOptions off;
  off.inferSrl16 = false;
  const auto plain = synth::estimate(regChain(3, false), off);
  EXPECT_EQ(plain.res.srl16, 0);
  EXPECT_EQ(plain.res.ff, 24);
}

TEST(Srl16Inference, EighteenRegisterChainNeedsTwoSrlsPerBit) {
  const auto rep = synth::estimate(regChain(18, false));
  EXPECT_EQ(rep.res.srl16, 16); // depth 17 > 16 taps
  EXPECT_EQ(rep.res.ff, 8);
  EXPECT_EQ(rep.slices, 10);
}

TEST(Srl16Inference, MidChainFanoutSplitsTheChain) {
  // r0 -> r1 -> r2 -> r3 -> r4, with r2 also driving a second output: the
  // first three registers form one SRL chain; r3 -> r4 is too short.
  std::vector<int> q;
  rtl::Module m = regChain(5, false, &q);
  m.outputPorts.push_back(q[2]);
  m.outputNames.push_back("tap");
  const auto rep = synth::estimate(m);
  EXPECT_EQ(rep.res.srl16, 8);
  EXPECT_EQ(rep.res.ff, 8 + 16);
  EXPECT_EQ(rep.slices, 14);
}

TEST(Srl16Inference, ChainAfterLogicCellIsInferred) {
  const auto rep = synth::estimate(regChain(4, true));
  EXPECT_EQ(rep.res.srl16, 8); // depth 3 -> one SRL16 per bit
  EXPECT_EQ(rep.res.ff, 8);
  EXPECT_DOUBLE_EQ(rep.res.lut4, TimingModel::virtex2().cost(Primitive::Logic, 8).lut4); // the Not
  EXPECT_EQ(rep.slices, 8);
}

// --- Table 1 slice regression ------------------------------------------------

struct SliceRow {
  const char* name;
  int64_t slices;
};

// Pinned against the current cost table; an intentional table change must
// update these together with the goldens, an accidental one fails here.
constexpr SliceRow kExpectedSlices[] = {
    {"bit_correlator", 46}, {"mul_acc", 43}, {"mul_acc_predicated", 48},
    {"udiv", 155},          {"square_root", 707}, {"cos", 512},
    {"fir", 61},            {"dct", 1031},   {"wavelet", 103},
};

TEST(Table1Slices, PinnedAgainstCostTable) {
  for (const auto& row : kExpectedSlices) {
    const bench::NamedKernel* k = nullptr;
    for (const auto& cand : bench::kTable1Kernels) {
      if (std::string(cand.name) == row.name) k = &cand;
    }
    ASSERT_NE(k, nullptr) << row.name;
    CompileOptions opt;
    if (k->targetStageDelayNs > 0) opt.dpOptions.targetStageDelayNs = k->targetStageDelayNs;
    const CompileResult r = Compiler(opt).compileSource(k->source);
    ASSERT_TRUE(r.ok) << row.name << "\n" << r.diags.dump();
    const auto rep = synth::estimate(r.module);
    EXPECT_EQ(rep.slices, row.slices) << row.name;
  }
}

} // namespace
} // namespace roccc
