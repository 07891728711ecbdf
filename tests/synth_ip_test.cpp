#include <gtest/gtest.h>

#include <cmath>

#include "../bench/table1.hpp"
#include "ip/ip.hpp"
#include "roccc/compiler.hpp"
#include "rtl/system.hpp"
#include "support/cosrom.hpp"
#include "support/strings.hpp"
#include "synth/estimate.hpp"

namespace roccc {
namespace {

// --- estimator basics -----------------------------------------------------------

TEST(Synth, SlicesPackLutsAndFfs) {
  synth::Resources r;
  r.lut4 = 100;
  r.ff = 0;
  const int64_t logicOnly = synth::slicesFor(r);
  EXPECT_EQ(logicOnly, 50);
  r.ff = 100;
  EXPECT_GT(synth::slicesFor(r), logicOnly); // imperfect packing costs some
  EXPECT_LT(synth::slicesFor(r), 100);
}

TEST(Synth, WiderAddersAreSlowerAndBigger) {
  auto make = [](int w) {
    rtl::Module m;
    m.name = "adder";
    const int a = m.addNet(ScalarType::make(w, true), "a");
    const int b = m.addNet(ScalarType::make(w, true), "b");
    m.inputPorts = {a, b};
    m.inputNames = {"a", "b"};
    const int s = m.addNet(ScalarType::make(w, true), "s");
    m.addCell(rtl::CellKind::Add, {a, b}, s);
    const int r = m.addNet(ScalarType::make(w, true), "r");
    const int c = m.addCell(rtl::CellKind::Reg, {s}, r);
    (void)c;
    m.outputPorts = {r};
    m.outputNames = {"r"};
    return m;
  };
  const auto r8 = synth::estimate(make(8));
  const auto r32 = synth::estimate(make(32));
  EXPECT_LT(r8.slices, r32.slices);
  EXPECT_GT(r8.fmaxMHz(), r32.fmaxMHz());
}

TEST(Synth, ConstantShiftIsFree) {
  rtl::Module m;
  m.name = "shifter";
  const int a = m.addNet(ScalarType::make(16, false), "a");
  m.inputPorts = {a};
  m.inputNames = {"a"};
  const int sh = m.addConst(3, ScalarType::make(3, false));
  const int o = m.addNet(ScalarType::make(16, false), "o");
  m.addCell(rtl::CellKind::Shl, {a, sh}, o);
  m.outputPorts = {o};
  m.outputNames = {"o"};
  const auto rep = synth::estimate(m);
  EXPECT_EQ(rep.res.lut4, 0);
}

TEST(Synth, RomSizingDistributedVsBram) {
  auto romModule = [](size_t entries) {
    rtl::Module m;
    m.name = "rom";
    const int a = m.addNet(ScalarType::make(12, false), "a");
    m.inputPorts = {a};
    m.inputNames = {"a"};
    const int o = m.addNet(ScalarType::make(16, true), "o");
    const int c = m.addCell(rtl::CellKind::Rom, {a}, o);
    m.cells[static_cast<size_t>(c)].romData.assign(entries, 1);
    m.outputPorts = {o};
    m.outputNames = {"o"};
    return m;
  };
  const auto small = synth::estimate(romModule(256));
  EXPECT_EQ(small.res.bram, 0);
  EXPECT_EQ(small.res.lut4, 256 / 16 * 16);
  const auto big = synth::estimate(romModule(4096)); // 64 kbit > threshold
  EXPECT_GT(big.res.bram, 0);
}

// --- IP functional checks ------------------------------------------------------------

/// Drives a combinational+registered module for enough cycles to flush its
/// latency and returns the output for each applied input.
std::vector<int64_t> drive(const rtl::Module& m, const std::vector<std::vector<int64_t>>& inputs,
                           size_t outPort = 0) {
  rtl::NetlistSim sim(m);
  sim.reset();
  std::vector<int64_t> outs;
  const size_t total = inputs.size() + static_cast<size_t>(m.latency);
  for (size_t t = 0; t < total; ++t) {
    const auto& vals = inputs[std::min(t, inputs.size() - 1)];
    for (size_t p = 0; p < vals.size(); ++p) {
      sim.setInput(p, Value::fromInt(m.nets[static_cast<size_t>(m.inputPorts[p])].type, vals[p]));
    }
    sim.eval();
    if (t >= static_cast<size_t>(m.latency)) outs.push_back(sim.output(outPort).toInt());
    sim.tick(true);
  }
  return outs;
}

TEST(IpBaseline, BitCorrelatorCounts) {
  const uint8_t mask = 181; // 10110101
  rtl::Module m = ip::buildBitCorrelator(mask);
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> expect;
  for (int x = 0; x < 256; x += 7) {
    in.push_back({x});
    int cnt = 0;
    for (int j = 0; j < 8; ++j) {
      if (((x >> j) & 1) == ((mask >> j) & 1)) ++cnt;
    }
    expect.push_back(cnt);
  }
  EXPECT_EQ(drive(m, in), expect);
}

TEST(IpBaseline, Udiv8Divides) {
  rtl::Module m = ip::buildUdiv8();
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> expect;
  for (int n = 0; n < 256; n += 17) {
    for (int d = 1; d < 256; d += 41) {
      in.push_back({n, d});
      expect.push_back(n / d);
    }
  }
  EXPECT_EQ(drive(m, in), expect);
}

TEST(IpBaseline, SquareRoot24) {
  rtl::Module m = ip::buildSquareRoot24();
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> expect;
  for (int64_t x : {0LL, 1LL, 2LL, 16LL, 81LL, 1000LL, 65535LL, 999999LL, 16777215LL}) {
    in.push_back({x});
    expect.push_back(static_cast<int64_t>(std::sqrt(static_cast<double>(x))));
  }
  const auto got = drive(m, in);
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "sqrt(" << in[i][0] << ")";
  }
}

TEST(IpBaseline, CosQuarterWaveMatchesRom) {
  rtl::Module m = ip::buildCosLut();
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> expect;
  for (int p = 0; p < 1024; p += 13) {
    in.push_back({p});
    expect.push_back(cosRomEntry(p, false));
  }
  const auto got = drive(m, in);
  for (size_t i = 0; i < expect.size(); ++i) {
    // Quarter-wave reconstruction differs by at most 1 LSB from the
    // full-wave table near the axis crossings (rounding of the mirror).
    EXPECT_EQ(got[i], expect[i]) << "phase " << in[i][0];
  }
}

TEST(IpBaseline, Fir5FiltersStream) {
  rtl::Module m = ip::buildFir5();
  std::vector<std::string> errors;
  ASSERT_TRUE(m.verify(errors)) << join(errors, "\n");
  static const int64_t c[5] = {3, 5, 7, 9, -1};
  std::vector<std::vector<int64_t>> in;
  std::vector<int64_t> x;
  for (int t = 0; t < 40; ++t) {
    const int64_t v = (t * 23) % 200 - 100;
    x.push_back(v);
    in.push_back({v, v});
  }
  rtl::NetlistSim sim(m);
  sim.reset();
  // Latency 3 after the tap line is full (tap t uses x[t-4..t]).
  std::vector<int64_t> got;
  for (size_t t = 0; t < in.size(); ++t) {
    sim.setInput(0, Value::fromInt(ScalarType::make(8, true), in[t][0]));
    sim.setInput(1, Value::fromInt(ScalarType::make(8, true), in[t][1]));
    sim.eval();
    got.push_back(sim.output(0).toInt());
    sim.tick(true);
  }
  for (size_t t = 7; t < in.size(); ++t) {
    // Output at cycle t corresponds to window ending at t-3 (latency),
    // taps reversed: y = sum c[k] * x[t-3-k].
    int64_t expect = 0;
    for (int k = 0; k < 5; ++k) expect += c[k] * x[t - 3 - static_cast<size_t>(k)];
    EXPECT_EQ(got[t], expect) << "t=" << t;
  }
}

TEST(IpBaseline, MulAccAccumulates) {
  rtl::Module m = ip::buildMulAcc();
  rtl::NetlistSim sim(m);
  sim.reset();
  int64_t expect = 0;
  std::vector<int64_t> products;
  for (int t = 0; t < 10; ++t) {
    const int64_t a = t - 5, b = 3 * t + 1;
    products.push_back(a * b);
    sim.setInput(0, Value::fromInt(ScalarType::make(12, true), a));
    sim.setInput(1, Value::fromInt(ScalarType::make(12, true), b));
    sim.eval();
    sim.tick(true);
  }
  // After 10 ticks the accumulator register has absorbed products 0..8
  // (the product register delays each by one cycle).
  sim.eval();
  for (int t = 0; t < 9; ++t) expect += products[static_cast<size_t>(t)];
  EXPECT_EQ(sim.output(0).toInt(), expect);
}

TEST(IpBaseline, StructuralModelsVerify) {
  for (const rtl::Module& m : {ip::buildDct8(), ip::buildWavelet53(64)}) {
    std::vector<std::string> errors;
    EXPECT_TRUE(m.verify(errors)) << m.name << ": " << join(errors, "\n");
  }
}

// --- the Table 1 claims, on the rows bench_table1 prints ----------------------------
//
// Paper section 5: ROCCC-generated circuits take "around 2x ~ 3x area"
// and run "at comparable clock rate"; the lookup-table designs are
// identical; the bit-manipulation kernels cost the compiler extra area;
// DCT trades clock for 8 outputs per clock. The rows come from
// bench::computeTable1(), the same function bench_table1 prints.

const bench::Table1& table1() {
  static const bench::Table1 t = bench::computeTable1();
  return t;
}

constexpr const char* kLutRows[] = {"cos", "arbitrary LUT"};
constexpr const char* kBitManipulationRows[] = {"bit_correlator", "udiv", "square root"};

bool isLutRow(const std::string& name) {
  for (const char* lut : kLutRows) {
    if (name == lut) return true;
  }
  return false;
}

TEST(Table1Shape, LookupTableRowsAreExactlyTheIp) {
  for (const char* name : kLutRows) {
    const bench::Table1Row& r = table1().row(name);
    EXPECT_EQ(r.areaRatio(), 1.0) << name;
    EXPECT_EQ(r.clockRatio(), 1.0) << name;
  }
}

TEST(Table1Shape, BitManipulationRowsCostExtraArea) {
  for (const char* name : kBitManipulationRows) {
    EXPECT_GT(table1().row(name).areaRatio(), 1.0) << name;
  }
}

TEST(Table1Shape, EveryClockIsWithinFiftyPercentOfTheIp) {
  for (const bench::Table1Row& r : table1().rows) {
    EXPECT_GE(r.clockRatio(), 0.5) << r.name;
    EXPECT_LE(r.clockRatio(), 1.5) << r.name;
  }
}

// At the 64-bit bus a full 8-sample block arrives per clock, so once the
// pipeline has filled the DCT emits 8 outputs on every advancing clock; at
// its lower clock that still beats the IP's 1 output per clock.
TEST(Table1Shape, DctDeliversEightOutputsPerClockAndOutrunsTheIp) {
  const CompileResult r = bench::compileTable1Kernel("dct");
  interp::KernelIO in;
  for (int i = 0; i < 64; ++i) in.arrays["X"].push_back((i * 37) % 256 - 128);
  rtl::SystemOptions sys;
  sys.inputBusElems = 8;
  const rtl::SystemStats st = rtl::measureSystem(r.kernel, r.datapath, r.module, in, sys);
  const int64_t fillCycles = st.pipelineStages - 1;
  const double steadyOutputsPerClock =
      static_cast<double>(st.outputElems) / static_cast<double>(st.enabledCycles - fillCycles);
  EXPECT_DOUBLE_EQ(steadyOutputsPerClock, 8.0);

  const bench::Table1Row& dct = table1().row("DCT");
  EXPECT_GT(steadyOutputsPerClock * dct.rocccClock, 1.0 * dct.ipClock);
}

// --- named expected deviations ------------------------------------------------------
//
// A row that misses the paper's band is pinned to today's value (+-2%)
// with its cause. A regression fails the pin; a fix that lands inside the
// band fails too, so the entry must then be deleted and the band asserted
// above instead. No band is widened to make a row pass.

struct Deviation {
  double measured;
  double bandLo, bandHi; ///< the paper's band
  double pinned;         ///< today's value
  const char* cause;
};

void expectPinnedDeviation(const Deviation& d) {
  EXPECT_FALSE(d.measured >= d.bandLo && d.measured <= d.bandHi)
      << d.measured << " is inside the paper's band [" << d.bandLo << ", " << d.bandHi
      << "]: delete this deviation and assert the band";
  EXPECT_NEAR(d.measured, d.pinned, 0.02 * d.pinned) << "cause on record: " << d.cause;
}

// Paper: "around 2x ~ 3x area".
TEST(Table1Shape, DeviationNonLutAreaGeomeanBelowTwo) {
  double logSum = 0;
  int n = 0;
  for (const bench::Table1Row& r : table1().rows) {
    if (isLutRow(r.name)) continue;
    logSum += std::log(r.areaRatio());
    ++n;
  }
  ASSERT_EQ(n, 7);
  expectPinnedDeviation({std::exp(logSum / n), 2.0, 3.0, 1.55,
                         "open: udiv, square_root and mul_acc cost 1.17x/1.17x/1.26x against the "
                         "paper's 3.44x/2.05x/3.28x, and FIR is below 1x"});
}

// Paper: FIR at 1.09x area, "near parity" (within 15% of the IP).
TEST(Table1Shape, DeviationFirAreaBelowParity) {
  expectPinnedDeviation({table1().row("FIR").areaRatio(), 0.85, 1.15, 0.526,
                         "the constant taps lower to shift-adds at inferred 13-bit widths (62 "
                         "slices per filter under the paper's width rule too), under the IP's "
                         "16-bit distributed-arithmetic filter"});
}

// Paper: the generated divider clocks 1.26x the IP.
TEST(Table1Shape, DeviationUdivClockBelowTheIp) {
  expectPinnedDeviation({table1().row("udiv").clockRatio(), 1.0, 1.5, 0.760,
                         "latches are placed on the data-path timing view (345 MHz), which misses "
                         "the resize and mux cells the estimator prices (200 MHz)"});
}

// Paper: the generated square root clocks 1.32x the IP.
TEST(Table1Shape, DeviationSquareRootClockBelowTheIp) {
  expectPinnedDeviation({table1().row("square root").clockRatio(), 1.0, 1.5, 0.759,
                         "latches are placed on the data-path timing view (228 MHz), which misses "
                         "the resize and mux cells the estimator prices (153 MHz)"});
}

TEST(Table1Shape, PaperReferenceNumbersPresent) {
  const auto& rows = ip::paperTable1();
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_STREQ(rows[0].name, "bit_correlator");
  EXPECT_EQ(rows[2].rocccAreaSlices, 495);
  EXPECT_NEAR(rows[7].rocccClockMHz / rows[7].ipClockMHz, 0.735, 0.01);
}

} // namespace
} // namespace roccc
