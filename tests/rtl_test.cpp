#include <gtest/gtest.h>

#include <stdexcept>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/kernel.hpp"
#include "rtl/buffers.hpp"
#include "rtl/netlist.hpp"
#include "rtl/vcd.hpp"
#include "support/strings.hpp"

namespace roccc::rtl {
namespace {

// --- netlist primitives -----------------------------------------------------

Module singleCell(CellKind k, std::vector<ScalarType> inTypes, ScalarType outType) {
  Module m;
  m.name = "cell";
  std::vector<int> ins;
  for (size_t i = 0; i < inTypes.size(); ++i) {
    const int n = m.addNet(inTypes[i], fmt("i%0", i));
    m.inputPorts.push_back(n);
    m.inputNames.push_back(fmt("i%0", i));
    ins.push_back(n);
  }
  const int o = m.addNet(outType, "o");
  m.addCell(k, ins, o);
  m.outputPorts.push_back(o);
  m.outputNames.push_back("o");
  return m;
}

int64_t evalBinary(CellKind k, int64_t a, int64_t b, ScalarType t) {
  Module m = singleCell(k, {t, t}, t);
  NetlistSim sim(m);
  sim.setInput(0, Value::fromInt(t, a));
  sim.setInput(1, Value::fromInt(t, b));
  sim.eval();
  return sim.output(0).toInt();
}

TEST(Netlist, ArithmeticPrimitives) {
  const ScalarType t = ScalarType::make(16, true);
  EXPECT_EQ(evalBinary(CellKind::Add, 1000, -250, t), 750);
  EXPECT_EQ(evalBinary(CellKind::Sub, 100, 250, t), -150);
  EXPECT_EQ(evalBinary(CellKind::Mul, -12, 11, t), -132);
  EXPECT_EQ(evalBinary(CellKind::And, 0b1100, 0b1010, t), 0b1000);
  EXPECT_EQ(evalBinary(CellKind::Xor, 0b1100, 0b1010, t), 0b0110);
}

TEST(Netlist, ArithmeticWrapsAtWidth) {
  const ScalarType t = ScalarType::make(8, true);
  EXPECT_EQ(evalBinary(CellKind::Add, 127, 1, t), -128);
  EXPECT_EQ(evalBinary(CellKind::Mul, 64, 4, t), 0);
}

TEST(Netlist, RegisterHoldsAndEnables) {
  Module m;
  m.name = "reg";
  const ScalarType t = ScalarType::make(8, false);
  const int d = m.addNet(t, "d");
  const int en = m.addNet(ScalarType::make(1, false), "en");
  m.inputPorts = {d, en};
  m.inputNames = {"d", "en"};
  const int q = m.addNet(t, "q");
  const int cell = m.addCell(CellKind::Reg, {d, en}, q);
  m.cells[static_cast<size_t>(cell)].imm = 42; // reset value
  m.outputPorts = {q};
  m.outputNames = {"q"};

  NetlistSim sim(m);
  sim.eval();
  EXPECT_EQ(sim.output(0).toInt(), 42); // reset value visible
  sim.setInput(0, Value::fromInt(t, 7));
  sim.setInput(1, Value::ofBool(false));
  sim.eval();
  sim.tick(true); // enable input low: hold
  sim.eval();
  EXPECT_EQ(sim.output(0).toInt(), 42);
  sim.setInput(1, Value::ofBool(true));
  sim.eval();
  sim.tick(true);
  sim.eval();
  EXPECT_EQ(sim.output(0).toInt(), 7);
  sim.tick(false); // global enable low: hold
  sim.eval();
  EXPECT_EQ(sim.output(0).toInt(), 7);
  sim.reset();
  sim.eval();
  EXPECT_EQ(sim.output(0).toInt(), 42);
}

TEST(Netlist, CombinationalCycleDetected) {
  Module m;
  m.name = "cycle";
  const ScalarType t = ScalarType::make(4, false);
  const int a = m.addNet(t, "a");
  const int b = m.addNet(t, "b");
  m.addCell(CellKind::Not, {a}, b);
  m.addCell(CellKind::Not, {b}, a);
  EXPECT_THROW(NetlistSim sim(m), std::runtime_error);
}

TEST(Netlist, VerifyCatchesUndrivenAndDoubleDriven) {
  Module m;
  m.name = "bad";
  const ScalarType t = ScalarType::make(4, false);
  const int a = m.addNet(t, "a"); // undriven, not an input
  const int b = m.addNet(t, "b");
  m.addCell(CellKind::Not, {a}, b);
  m.addCell(CellKind::Not, {a}, b); // double driver
  std::vector<std::string> errors;
  EXPECT_FALSE(m.verify(errors));
  EXPECT_GE(errors.size(), 2u);
}

// --- memory-side components ------------------------------------------------------

TEST(Bram, ReadWriteAndBounds) {
  Bram bram(ScalarType::make(8, true), std::vector<int64_t>{10, 20, 30});
  EXPECT_EQ(bram.read(1).toInt(), 20);
  bram.write(2, Value::ofInt(-5));
  EXPECT_EQ(bram.read(2).toInt(), -5);
  EXPECT_EQ(bram.reads, 2);
  EXPECT_EQ(bram.writes, 1);
  EXPECT_THROW(bram.read(3), std::runtime_error);
  EXPECT_THROW(bram.write(-1, Value::ofInt(0)), std::runtime_error);
  // peek is bounds-checked like read but leaves the traffic count alone.
  EXPECT_EQ(bram.peek(0).toInt(), 10);
  EXPECT_THROW(bram.peek(3), std::runtime_error);
  EXPECT_THROW(bram.peek(-1), std::runtime_error);
  EXPECT_EQ(bram.reads, 2);
}

TEST(IterationWalker, DecodesNestedLoops) {
  IterationWalker w({{"i", 0, 3, 1}, {"j", 2, 8, 2}});
  EXPECT_EQ(w.totalIterations(), 9);
  EXPECT_EQ(w.ivsAt(0), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(w.ivsAt(2), (std::vector<int64_t>{0, 6}));
  EXPECT_EQ(w.ivsAt(3), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(w.ivsAt(8), (std::vector<int64_t>{2, 6}));
}

TEST(IterationWalker, BufferFormMatchesAllocatingForm) {
  const IterationWalker deep({{"i", 0, 3, 1}, {"j", 2, 8, 2}, {"k", -4, 4, 3}});
  ASSERT_EQ(deep.totalIterations(), 27);
  std::vector<int64_t> buf;
  for (int64_t t = 0; t < deep.totalIterations(); ++t) {
    deep.ivsAt(t, buf);
    EXPECT_EQ(buf, deep.ivsAt(t)) << "t=" << t;
  }
  // A buffer last sized by a deeper nest is resized, not left long.
  const IterationWalker shallow({{"i", 1, 5, 2}});
  buf.assign(7, -99);
  for (int64_t t = 0; t < shallow.totalIterations(); ++t) {
    shallow.ivsAt(t, buf);
    EXPECT_EQ(buf, shallow.ivsAt(t)) << "t=" << t;
  }
  deep.ivsAt(26, buf);
  EXPECT_EQ(buf, (std::vector<int64_t>{2, 6, 2}));
}

hlir::Stream firStream() {
  // 5-tap window over a 1-D array of 20, stride 1.
  hlir::Stream st;
  st.arrayName = "A";
  st.elemType = ScalarType::make(16, true);
  st.dims = {20};
  st.dimMap = {{0, 1}};
  for (int k = 0; k < 5; ++k) {
    st.offsets.push_back({k});
    st.scalarNames.push_back(fmt("A%0", k));
  }
  return st;
}

TEST(SmartBufferUnit, FetchesEachElementOnceAndServesWindows) {
  const hlir::Stream st = firStream();
  IterationWalker w({{"i", 0, 16, 1}});
  SmartBuffer buf(st, w, /*busElems=*/1);
  std::vector<int64_t> data;
  for (int i = 0; i < 20; ++i) data.push_back(i * 10);
  Bram bram(st.elemType, data);

  EXPECT_FALSE(buf.windowReady(0));
  int cycles = 0;
  while (!buf.windowReady(0)) {
    buf.cycle(bram);
    ++cycles;
  }
  EXPECT_EQ(cycles, 5); // window fill
  std::vector<Value> win;
  buf.window(bram, 0, win);
  ASSERT_EQ(win.size(), 5u);
  EXPECT_EQ(win[0].toInt(), 0);
  EXPECT_EQ(win[4].toInt(), 40);
  EXPECT_EQ(bram.reads, 5) << "serving a window reads on-chip data, not the BRAM";
  // One more fetch cycle unlocks the next window (stride 1 = reuse 4/5).
  buf.cycle(bram);
  EXPECT_TRUE(buf.windowReady(1));
  buf.window(bram, 1, win);
  ASSERT_EQ(win.size(), 5u);
  EXPECT_EQ(win[0].toInt(), 10);
  EXPECT_EQ(bram.reads, 6);
  // Drain everything; total fetches equal the array size.
  for (int i = 0; i < 40; ++i) buf.cycle(bram);
  EXPECT_TRUE(buf.windowReady(15));
  EXPECT_EQ(buf.fetchCount(), 20);
  EXPECT_EQ(buf.capacityElems(), 5 + 1);
}

TEST(SmartBufferUnit, WideBusFillsFaster) {
  const hlir::Stream st = firStream();
  IterationWalker w({{"i", 0, 16, 1}});
  SmartBuffer buf(st, w, /*busElems=*/4);
  Bram bram(st.elemType, std::vector<int64_t>(20, 1));
  int cycles = 0;
  while (!buf.windowReady(0)) {
    buf.cycle(bram);
    ++cycles;
  }
  EXPECT_EQ(cycles, 2); // ceil(5/4)
}

TEST(NaiveBufferUnit, RefetchesWholeWindows) {
  const hlir::Stream st = firStream();
  IterationWalker w({{"i", 0, 16, 1}});
  NaiveBuffer buf(st, w, 1);
  Bram bram(st.elemType, std::vector<int64_t>(20, 1));
  for (int t = 0; t < 3; ++t) {
    int cycles = 0;
    while (!buf.windowReady(t)) {
      buf.cycle(bram);
      ++cycles;
    }
    EXPECT_EQ(cycles, 5) << "every window re-fetched";
    buf.advance();
  }
  EXPECT_EQ(buf.fetchCount(), 15);
}

TEST(OutputCollectorUnit, DrainsWithBackpressure) {
  hlir::Stream st;
  st.arrayName = "C";
  st.elemType = ScalarType::make(16, true);
  st.dims = {16};
  st.dimMap = {{0, 1}};
  st.offsets = {{0}};
  st.scalarNames = {"C_o0"};
  IterationWalker w({{"i", 0, 16, 1}});
  OutputCollector col(st, w, /*busElems=*/1, /*fifoDepth=*/2);
  Bram bram(st.elemType, size_t{16});
  EXPECT_TRUE(col.hasRoom());
  col.push(0, {Value::ofInt(100)});
  col.push(1, {Value::ofInt(101)});
  EXPECT_FALSE(col.hasRoom()); // fifo full -> backpressure
  col.cycle(bram);
  EXPECT_TRUE(col.hasRoom());
  col.cycle(bram);
  EXPECT_TRUE(col.drained());
  EXPECT_EQ(bram.contents()[0], 100);
  EXPECT_EQ(bram.contents()[1], 101);
  // The fifo slots are reused: later windows wrap around the ring in order.
  for (int t = 2; t < 7; ++t) {
    ASSERT_TRUE(col.hasRoom());
    col.push(t, {Value::ofInt(100 + t)});
    if (t % 2 == 0) continue; // let two windows queue up
    col.cycle(bram);
    col.cycle(bram);
  }
  col.cycle(bram);
  EXPECT_TRUE(col.drained());
  EXPECT_EQ(col.writeCount(), 7);
  for (int t = 0; t < 7; ++t) EXPECT_EQ(bram.contents()[static_cast<size_t>(t)], 100 + t) << t;
}

// --- VCD waveform recording ----------------------------------------------------

TEST(Vcd, RecordsChangesInStandardFormat) {
  Module m;
  m.name = "counter";
  const ScalarType t = ScalarType::make(4, false);
  const int next = m.addNet(t, "next");
  const int q = m.addNet(t, "count");
  const int one = m.addConst(1, t);
  m.addCell(CellKind::Add, {q, one}, next);
  m.addCell(CellKind::Reg, {next}, q);
  m.outputPorts = {q};
  m.outputNames = {"count"};

  NetlistSim sim(m);
  VcdRecorder vcd(m);
  for (int c = 0; c < 5; ++c) {
    sim.eval();
    vcd.sample(sim);
    sim.tick(true);
  }
  EXPECT_EQ(vcd.sampleCount(), 5u);
  const std::string out = vcd.render();
  EXPECT_NE(out.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 4"), std::string::npos);
  EXPECT_NE(out.find("count"), std::string::npos);
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_NE(out.find("#40"), std::string::npos);
  // The counter value changes each sample: b0000 then b0001 ...
  EXPECT_NE(out.find("b0001"), std::string::npos);
  EXPECT_NE(out.find("b0010"), std::string::npos);
}

TEST(Vcd, OnlyNamedSkipsTemporaries) {
  Module m;
  m.name = "x";
  m.addNet(ScalarType::make(8, false), "t12_s1");
  m.addNet(ScalarType::make(8, false), "useful");
  m.inputPorts = {0, 1};
  m.inputNames = {"t12_s1", "useful"};
  VcdRecorder all(m, false);
  VcdRecorder named(m, true);
  NetlistSim sim(m);
  sim.eval();
  all.sample(sim);
  named.sample(sim);
  EXPECT_NE(all.render().find("t12_s1"), std::string::npos);
  EXPECT_EQ(named.render().find("t12_s1"), std::string::npos);
  EXPECT_NE(named.render().find("useful"), std::string::npos);
}

// --- 2-D geometry through the walker + smart buffer -------------------------------

TEST(SmartBufferUnit, LineBufferCapacityFor2D) {
  // 3x3 window over an 8-column image: capacity = 2 lines + 3 elements.
  hlir::Stream st;
  st.arrayName = "X";
  st.elemType = ScalarType::make(8, false);
  st.dims = {6, 8};
  st.dimMap = {{0, 1}, {1, 1}};
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      st.offsets.push_back({r, c});
      st.scalarNames.push_back(fmt("X%0", r * 3 + c));
    }
  }
  IterationWalker w({{"i", 0, 4, 1}, {"j", 0, 6, 1}});
  SmartBuffer buf(st, w, 1);
  EXPECT_EQ(buf.capacityElems(), 2 * 8 + 3 + 1); // line-buffer sizing
}

} // namespace
} // namespace roccc::rtl
