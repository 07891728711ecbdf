// Unit tests for the linear middle end: the worklist DCE, the hashed CSE
// key, the interval dominance test and the iterative reverse post-order
// (checked against the idom walk and the recursive DFS they replace), and
// the dense pipeline-register chains of the RTL lowering.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "mir/ir.hpp"
#include "mir/passes.hpp"
#include "roccc/compiler.hpp"
#include "rtl/from_dp.hpp"

namespace roccc {
namespace {

using mir::DomTree;
using mir::FunctionIR;
using mir::Instr;
using mir::Opcode;
using mir::Operand;

// --- hand-built MIR ------------------------------------------------------------

Instr makeInstr(Opcode op, int dst, std::vector<Operand> srcs, ScalarType type = ScalarType::intTy()) {
  Instr in;
  in.op = op;
  in.dst = dst;
  in.srcs = std::move(srcs);
  in.type = type;
  return in;
}

/// One block reading two int inputs into v0/v1; append() adds
/// instructions and finish() the Ret.
FunctionIR singleBlock() {
  FunctionIR f;
  f.addBlock();
  for (int port = 0; port < 2; ++port) {
    Instr in = makeInstr(Opcode::In, f.newReg(ScalarType::intTy(), ""), {});
    in.aux0 = port;
    f.blocks[0].instrs.push_back(in);
  }
  return f;
}

void append(FunctionIR& f, Instr in) { f.blocks[0].instrs.push_back(std::move(in)); }

void finish(FunctionIR& f) { append(f, makeInstr(Opcode::Ret, -1, {})); }

/// A chain v = ldc 1; v' = mov v; ... of `length` moves in one block.
/// Returns the last register of the chain.
int movChain(FunctionIR& f, int length) {
  int prev = f.newReg(ScalarType::intTy(), "");
  Instr ld = makeInstr(Opcode::Ldc, prev, {});
  ld.imm = 1;
  append(f, ld);
  for (int i = 0; i < length; ++i) {
    const int next = f.newReg(ScalarType::intTy(), "");
    append(f, makeInstr(Opcode::Mov, next, {Operand::ofReg(prev)}));
    prev = next;
  }
  return prev;
}

TEST(DcePass, RemovesLongDeadChainInOneCall) {
  FunctionIR f;
  f.addBlock();
  movChain(f, 10000);
  finish(f);
  EXPECT_EQ(mir::deadCodeEliminate(f), 10001);
  ASSERT_EQ(f.blocks[0].instrs.size(), 1u);
  EXPECT_EQ(f.blocks[0].instrs.back().op, Opcode::Ret);
}

TEST(DcePass, KeepsChainFeedingAnOutputWhole) {
  FunctionIR f;
  f.addBlock();
  const int last = movChain(f, 10000);
  append(f, makeInstr(Opcode::Out, -1, {Operand::ofReg(last)}));
  finish(f);
  EXPECT_EQ(mir::deadCodeEliminate(f), 0);
  EXPECT_EQ(f.blocks[0].instrs.size(), 10003u);
}

// --- CSE identity ----------------------------------------------------------------

/// Runs CSE over the two instructions `first` and `second` build (each
/// receives its dst register) and returns the change count.
int cseOnPair(const std::function<Instr(FunctionIR&, int)>& first,
              const std::function<Instr(FunctionIR&, int)>& second) {
  FunctionIR f = singleBlock();
  const int d0 = f.newReg(ScalarType::intTy(), "");
  const int d1 = f.newReg(ScalarType::intTy(), "");
  append(f, first(f, d0));
  append(f, second(f, d1));
  finish(f);
  return mir::commonSubexpressionEliminate(f);
}

Instr add(int dst, Operand a, Operand b, ScalarType t = ScalarType::intTy()) {
  return makeInstr(Opcode::Add, dst, {a, b}, t);
}

TEST(CsePass, MergesIdenticalInstructions) {
  FunctionIR f = singleBlock();
  const int d0 = f.newReg(ScalarType::intTy(), "");
  const int d1 = f.newReg(ScalarType::intTy(), "");
  append(f, add(d0, Operand::ofReg(0), Operand::ofReg(1)));
  append(f, add(d1, Operand::ofReg(0), Operand::ofReg(1)));
  append(f, makeInstr(Opcode::Out, -1, {Operand::ofReg(d1)}));
  finish(f);
  EXPECT_EQ(mir::commonSubexpressionEliminate(f), 1);
  EXPECT_EQ(f.blocks[0].instrs[3].op, Opcode::Mov);
  // The copy is propagated into the output.
  EXPECT_EQ(f.blocks[0].instrs[4].srcs[0].reg, d0);
}

TEST(CsePass, KeepsInstructionsThatDifferInOneField) {
  const Operand r0 = Operand::ofReg(0), r1 = Operand::ofReg(1);
  auto plain = [&](FunctionIR&, int d) { return add(d, r0, r1); };
  // Signedness and width of the result type.
  EXPECT_EQ(cseOnPair(plain, [&](FunctionIR&, int d) { return add(d, r0, r1, ScalarType::uintTy()); }), 0);
  EXPECT_EQ(cseOnPair(plain, [&](FunctionIR&, int d) { return add(d, r0, r1, ScalarType::make(16, true)); }), 0);
  // An immediate operand against a register with the same number.
  EXPECT_EQ(cseOnPair([&](FunctionIR&, int d) { return add(d, r0, Operand::ofImm(1)); },
                      [&](FunctionIR&, int d) { return add(d, r0, r1); }),
            0);
  // imm.
  auto ldc = [](int64_t v) {
    return [v](FunctionIR&, int d) {
      Instr in = makeInstr(Opcode::Ldc, d, {});
      in.imm = v;
      return in;
    };
  };
  EXPECT_EQ(cseOnPair(ldc(5), ldc(6)), 0);
  // aux0 / aux1.
  auto bitsel = [&](int hi, int lo) {
    return [=](FunctionIR&, int d) {
      Instr in = makeInstr(Opcode::BitSel, d, {r0});
      in.aux0 = hi;
      in.aux1 = lo;
      return in;
    };
  };
  EXPECT_EQ(cseOnPair(bitsel(7, 0), bitsel(6, 0)), 0);
  EXPECT_EQ(cseOnPair(bitsel(7, 0), bitsel(7, 1)), 0);
  // symbol.
  auto lpr = [](const char* sym) {
    return [=](FunctionIR&, int d) {
      Instr in = makeInstr(Opcode::Lpr, d, {});
      in.symbol = sym;
      return in;
    };
  };
  EXPECT_EQ(cseOnPair(lpr("a"), lpr("b")), 0);
  // Sanity: each of the builders does merge with itself.
  EXPECT_EQ(cseOnPair(plain, plain), 1);
  EXPECT_EQ(cseOnPair(ldc(5), ldc(5)), 1);
  EXPECT_EQ(cseOnPair(bitsel(7, 0), bitsel(7, 0)), 1);
  EXPECT_EQ(cseOnPair(lpr("a"), lpr("a")), 1);
}

// --- CFG analyses against their reference forms ---------------------------------

/// The recursive DFS the iterative reverse post-order replaced.
std::vector<int> recursiveRpo(const FunctionIR& f) {
  std::vector<int> order;
  std::vector<char> visited(f.blocks.size(), 0);
  std::function<void(int)> dfs = [&](int b) {
    visited[static_cast<size_t>(b)] = 1;
    for (int s : f.blocks[static_cast<size_t>(b)].succs) {
      if (!visited[static_cast<size_t>(s)]) dfs(s);
    }
    order.push_back(b);
  };
  dfs(0);
  std::reverse(order.begin(), order.end());
  return order;
}

/// The idom-chain walk the interval test replaced (reachable blocks only).
bool walkDominates(const DomTree& dt, int a, int b) {
  while (b != a && dt.idom[static_cast<size_t>(b)] != b) b = dt.idom[static_cast<size_t>(b)];
  return a == b;
}

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The optimized MIR of every Table 1 and corpus kernel at unroll 1 and 4.
std::vector<std::pair<std::string, FunctionIR>> kernelCfgs() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& k : bench::kTable1Kernels) sources.emplace_back(k.name, k.source);
  for (const auto& entry : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
    if (entry.path().extension() == ".c") {
      sources.emplace_back(entry.path().stem().string(), readFile(entry.path()));
    }
  }
  std::vector<std::pair<std::string, FunctionIR>> out;
  for (const int u : {1, 4}) {
    for (const auto& [name, source] : sources) {
      CompileOptions opt;
      opt.unrollFactor = u;
      CompileResult r = Compiler(opt).compileSource(source);
      EXPECT_TRUE(r.ok) << name << ": " << r.diags.dump();
      out.emplace_back(name + "@u" + std::to_string(u), std::move(r.mir));
    }
  }
  return out;
}

TEST(CfgAnalyses, IterativeRpoAndIntervalDominanceMatchReferenceOnKernels) {
  size_t multiBlock = 0;
  for (const auto& [name, f] : kernelCfgs()) {
    const std::vector<int> rpo = mir::reversePostOrder(f);
    EXPECT_EQ(rpo, recursiveRpo(f)) << name;
    if (f.blocks.size() > 1) ++multiBlock;
    const DomTree dt = mir::computeDominators(f);
    for (int a : rpo) {
      for (int b : rpo) {
        EXPECT_EQ(dt.dominates(a, b), walkDominates(dt, a, b)) << name << ": bb" << a << " / bb" << b;
      }
    }
  }
  EXPECT_GT(multiBlock, 0u) << "no kernel produced a branching CFG";
}

TEST(CfgAnalyses, HundredThousandBlockStraightLine) {
  constexpr int kBlocks = 100000;
  FunctionIR f;
  for (int b = 0; b < kBlocks; ++b) {
    f.addBlock();
    if (b > 0) {
      f.blocks[static_cast<size_t>(b - 1)].succs.push_back(b);
      f.blocks[static_cast<size_t>(b)].preds.push_back(b - 1);
    }
  }
  const std::vector<int> rpo = mir::reversePostOrder(f);
  ASSERT_EQ(rpo.size(), static_cast<size_t>(kBlocks));
  for (int b = 0; b < kBlocks; ++b) ASSERT_EQ(rpo[static_cast<size_t>(b)], b);
  const DomTree dt = mir::computeDominators(f);
  EXPECT_TRUE(dt.dominates(0, kBlocks - 1));
  EXPECT_TRUE(dt.dominates(kBlocks / 2, kBlocks - 1));
  EXPECT_FALSE(dt.dominates(kBlocks - 1, kBlocks / 2));
}

TEST(CfgAnalyses, UnreachableBlockDominatesNothingAndIsDominatedByNothing) {
  // bb0 -> bb1 -> bb3 (ret); bb2 -> bb3 with no path from the entry.
  FunctionIR f;
  for (int b = 0; b < 4; ++b) f.addBlock();
  auto edge = [&](int from, int to) {
    f.blocks[static_cast<size_t>(from)].succs.push_back(to);
    f.blocks[static_cast<size_t>(to)].preds.push_back(from);
  };
  edge(0, 1);
  edge(1, 3);
  edge(2, 3);
  EXPECT_EQ(mir::reversePostOrder(f), (std::vector<int>{0, 1, 3}));
  const DomTree dt = mir::computeDominators(f);
  EXPECT_EQ(dt.idom[2], -1);
  EXPECT_EQ(dt.idom[3], 1);
  for (int b = 0; b < 4; ++b) {
    EXPECT_FALSE(dt.dominates(2, b)) << "bb2 dominates bb" << b;
    EXPECT_FALSE(dt.dominates(b, 2)) << "bb" << b << " dominates bb2";
  }
  EXPECT_TRUE(dt.dominates(0, 3));
  EXPECT_TRUE(dt.dominates(1, 3));
  EXPECT_TRUE(dt.dominates(3, 3));
  EXPECT_FALSE(dt.dominates(3, 1));
}

// --- RTL lowering ------------------------------------------------------------------

TEST(RtlLowering, OutOfOrderStageUsesShareOneRegisterPerStage) {
  // x (input) -> a = x + x at stage 0; late = mov a at stage 3 is lowered
  // before early = mov a at stage 1, so a's register chain is first built
  // to depth 3 and then reused at depth 1.
  dp::DataPath d;
  d.name = "chain";
  d.stageCount = 4;
  auto value = [&](const std::string& name, int def) {
    dp::DpValue v;
    v.id = static_cast<int>(d.values.size());
    v.name = name;
    v.def = def;
    d.values.push_back(v);
    return v.id;
  };
  const int x = value("x", -1);
  d.values[static_cast<size_t>(x)].inputPort = 0;
  d.inputs.push_back({"x", ScalarType::intTy(), x});
  auto op = [&](Opcode code, std::vector<int> operands, const std::string& name, int stage) {
    dp::DpOp o;
    o.op = code;
    o.operands = std::move(operands);
    o.stage = stage;
    o.result = value(name, static_cast<int>(d.ops.size()));
    d.ops.push_back(o);
    return o.result;
  };
  const int a = op(Opcode::Add, {x, x}, "a", 0);
  const int early = op(Opcode::Mov, {a}, "early", 1);
  const int late = op(Opcode::Mov, {a}, "late", 3);
  d.outputs.push_back({"o_late", ScalarType::intTy(), late});
  d.outputs.push_back({"o_early", ScalarType::intTy(), early});
  d.outputStage = {3, 3};

  rtl::Module m;
  DiagEngine diags;
  ASSERT_TRUE(rtl::buildDatapathModule(d, m, diags)) << diags.dump();
  std::vector<std::string> aRegs;
  for (const auto& c : m.cells) {
    if (c.kind != rtl::CellKind::Reg) continue;
    const std::string& net = m.nets[static_cast<size_t>(c.output)].name;
    if (net.rfind("a_s", 0) == 0) aRegs.push_back(net);
  }
  std::sort(aRegs.begin(), aRegs.end());
  EXPECT_EQ(aRegs, (std::vector<std::string>{"a_s1", "a_s2", "a_s3"})) << m.dump();
}

} // namespace
} // namespace roccc
