// Randomized end-to-end property testing: generate random streaming kernels
// in the ROCCC subset, compile them through the full pipeline, and check
// that the cycle-accurate hardware matches the AST interpreter bit-for-bit
// on random inputs. This exercises the cross product of expression shapes,
// types, branches, feedback, windows and strides far beyond the hand-
// written tests.
// The kernel generator itself lives in kernel_fuzzer.hpp, shared with the
// thread-pool stress suite (driver_stress_test.cpp). The HDL checkers are
// fuzzed on their own at the end: arbitrary bytes and truncated designs
// must be checked to a verdict without a crash (the asan preset turns an
// out-of-bounds read in their lexers into a failure).
#include <gtest/gtest.h>

#include <random>
#include <string_view>

#include "../bench/kernels.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "hlir/cosim.hpp"
#include "kernel_fuzzer.hpp"
#include "roccc/compiler.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vhdl/check.hpp"
#include "vhdl/verilog.hpp"

namespace roccc {
namespace {

class FuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSweep, CompiledHardwareMatchesInterpreter) {
  KernelFuzzer fuzzer(GetParam());
  for (int round = 0; round < 8; ++round) {
    const auto g = fuzzer.generate();
    Compiler c;
    const CompileResult r = c.compileSource(g.source);
    ASSERT_TRUE(r.ok) << g.source << "\n" << r.diags.dump();
    const CosimReport rep = cosimulate(r, g.source, g.inputs);
    ASSERT_TRUE(rep.match) << g.source << "\n" << rep.mismatch << "\n" << r.datapath.dump();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

// Deep pipelining fuzz: same kernels at an aggressive stage target.
class FuzzPipelineSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPipelineSweep, AggressivePipeliningPreservesSemantics) {
  KernelFuzzer fuzzer(GetParam() * 7919);
  for (int round = 0; round < 4; ++round) {
    const auto g = fuzzer.generate();
    CompileOptions opt;
    opt.dpOptions.targetStageDelayNs = 1.5;
    Compiler c(opt);
    const CompileResult r = c.compileSource(g.source);
    ASSERT_TRUE(r.ok) << g.source << "\n" << r.diags.dump();
    const CosimReport rep = cosimulate(r, g.source, g.inputs);
    ASSERT_TRUE(rep.match) << g.source << "\n" << rep.mismatch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipelineSweep, ::testing::Values(2, 4, 6, 10, 12));

// Width-inference fuzz: inference on/off must agree.
class FuzzWidthSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzWidthSweep, AllWidthModesAgree) {
  KernelFuzzer fuzzer(GetParam() * 104729);
  for (int round = 0; round < 4; ++round) {
    const auto g = fuzzer.generate();
    CompileOptions range;
    CompileOptions portOpcode;
    portOpcode.dpOptions.widthMode = dp::BuildOptions::WidthMode::PortOpcode;
    CompileOptions off;
    off.dpOptions.widthMode = dp::BuildOptions::WidthMode::Declared;
    for (const CompileOptions& opt : {range, portOpcode, off}) {
      Compiler c(opt);
      const CompileResult r = c.compileSource(g.source);
      ASSERT_TRUE(r.ok) << g.source;
      const auto rep = cosimulate(r, g.source, g.inputs);
      ASSERT_TRUE(rep.match) << g.source << "\n" << rep.mismatch << "\n" << r.datapath.dump();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzWidthSweep, ::testing::Values(3, 9, 27, 81));

// Compiler-configuration fuzz: the cross product of the scalar optimization
// pipeline (on/off) and call-to-LUT conversion (on/off) must produce
// hardware with identical observable behavior, and on every configuration
// the fast engine must agree both with the interpreter and with the
// reference netlist engine driven through the same System.
class FuzzEngineConfigSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEngineConfigSweep, OptimizeAndLutConfigsAgreeOnBothEngines) {
  KernelFuzzer fuzzer(GetParam() * 2654435761ull);
  for (int round = 0; round < 3; ++round) {
    const auto g = fuzzer.generate();
    bool haveBaseline = false;
    interp::KernelIO baseline;
    for (const bool optimize : {true, false}) {
      for (const bool luts : {true, false}) {
        CompileOptions opt;
        opt.optimize = optimize;
        opt.convertCallsToLuts = luts;
        Compiler c(opt);
        const CompileResult r = c.compileSource(g.source);
        ASSERT_TRUE(r.ok) << g.source << "\n" << r.diags.dump();
        // Fast engine vs interpreter (cosimulate defaults to SimEngine::Fast).
        const CosimReport rep = cosimulate(r, g.source, g.inputs);
        ASSERT_TRUE(rep.match) << "optimize=" << optimize << " luts=" << luts << "\n"
                               << g.source << "\n" << rep.mismatch;
        // Fast engine vs the reference engine on the identical circuit.
        rtl::SystemOptions refOpt;
        refOpt.engine = rtl::SimEngine::Reference;
        rtl::System refSys(r.kernel, r.datapath, r.module, refOpt);
        const interp::KernelIO refOut = refSys.run(g.inputs);
        ASSERT_TRUE(refOut.arrays == rep.hardware.arrays && refOut.scalars == rep.hardware.scalars)
            << "reference and fast engines disagree (optimize=" << optimize << " luts=" << luts
            << ")\n" << g.source;
        // All four compiler configurations observe the same kernel semantics.
        if (!haveBaseline) {
          baseline = rep.hardware;
          haveBaseline = true;
        } else {
          ASSERT_TRUE(baseline.arrays == rep.hardware.arrays &&
                      baseline.scalars == rep.hardware.scalars)
              << "configuration changes output (optimize=" << optimize << " luts=" << luts
              << ")\n" << g.source;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEngineConfigSweep, ::testing::Values(7, 14, 21, 28, 42, 56));

// 2-D kernel fuzz: nested loops, rectangular windows, line-buffered smart
// buffers. Complements the 1-D fuzzer above.
class Fuzz2DSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Fuzz2DSweep, TwoDimensionalKernelsMatch) {
  std::mt19937_64 rng(GetParam() * 31337);
  auto pick = [&](int n) { return static_cast<int>(rng() % static_cast<uint64_t>(n)); };
  for (int round = 0; round < 4; ++round) {
    const int wr = 1 + pick(3); // window rows 1..3
    const int wc = 1 + pick(3); // window cols 1..3
    const int rows = 4 + pick(3);
    const int cols = 5 + pick(3);
    const int inR = rows + wr - 1;
    const int inC = cols + wc - 1;
    const int bits = 6 + pick(9);
    const bool sgn = pick(2) == 0;
    const ScalarType elemTy = ScalarType::make(bits, sgn);

    // Sum of randomly weighted window elements.
    std::string expr;
    for (int r = 0; r < wr; ++r) {
      for (int c = 0; c < wc; ++c) {
        if (!expr.empty()) expr += " + ";
        const int coef = pick(7) - 3;
        std::string idx = fmt("X[i%0][j%1]", r ? fmt("+%0", r) : std::string(),
                              c ? fmt("+%0", c) : std::string());
        expr += coef == 1 ? idx : fmt("%0*%1", coef, idx);
      }
    }
    const std::string src = fmt(R"(
void k(const %0 X[%1][%2], int32 Y[%3][%4]) {
  int i;
  int j;
  for (i = 0; i < %3; i++) {
    for (j = 0; j < %4; j++) {
      Y[i][j] = %5;
    }
  }
}
)", elemTy.str(), inR, inC, rows, cols, expr);

    interp::KernelIO in;
    std::uniform_int_distribution<int64_t> dist(elemTy.minValue(), elemTy.maxValue());
    for (int i = 0; i < inR * inC; ++i) in.arrays["X"].push_back(dist(rng));

    Compiler c;
    const CompileResult r = c.compileSource(src);
    ASSERT_TRUE(r.ok) << src << "\n" << r.diags.dump();
    const CosimReport rep = cosimulate(r, src, in);
    ASSERT_TRUE(rep.match) << src << "\n" << rep.mismatch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz2DSweep, ::testing::Values(1, 4, 7, 11, 18, 29));

// Cross-layer property: the three execution layers — software stream model
// (hlir::simulateStreams, interpreter-backed), the cycle-accurate RTL
// system, and the whole-kernel interpreter — agree on every fuzz kernel.
class FuzzLayersSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzLayersSweep, AllThreeExecutionLayersAgree) {
  KernelFuzzer fuzzer(GetParam() * 524287);
  for (int round = 0; round < 4; ++round) {
    const auto g = fuzzer.generate();
    Compiler c;
    const CompileResult r = c.compileSource(g.source);
    ASSERT_TRUE(r.ok) << g.source;
    // Layer 1: interpreter on the original kernel.
    DiagEngine d;
    ast::Module m = ast::parse(g.source, d);
    ast::analyze(m, d);
    const auto sw = interp::runKernel(m, r.kernel.kernelName, g.inputs);
    // Layer 2: stream model over the extracted kernel.
    const auto streams = hlir::simulateStreams(r.kernel, g.inputs);
    // Layer 3: cycle-accurate system.
    rtl::System sys(r.kernel, r.datapath, r.module);
    const auto hw = sys.run(g.inputs);
    for (const auto& st : r.kernel.outputs) {
      ASSERT_EQ(sw.arrays.at(st.arrayName), streams.arrays.at(st.arrayName)) << g.source;
      ASSERT_EQ(sw.arrays.at(st.arrayName), hw.arrays.at(st.arrayName)) << g.source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzLayersSweep, ::testing::Values(5, 15, 25, 35, 45));

// Both HDL checkers on one text: each must reach a verdict, and a verdict
// is ok exactly when it lists no problem.
void expectCheckersTerminate(const std::string& text) {
  const vhdl::CheckResult v = vhdl::checkDesign(text);
  EXPECT_EQ(v.ok, v.problems.empty());
  const verilog::CheckResult g = verilog::checkDesign(text);
  EXPECT_EQ(g.ok, g.problems.empty());
}

TEST(FuzzHdlCheck, ArbitraryBytes) {
  // Bytes the lexers treat specially, alone: NUL, high-bit bytes, and an
  // opening quote or tick with nothing after it.
  for (const char* text : {"", "\"", "'", "-", "--", "/", "//", "\xff", "a'", "x <= '", "entity \""}) {
    expectCheckersTerminate(text);
  }
  expectCheckersTerminate(std::string(1, '\0'));
  // Seeded random texts: uniform bytes, and texts drawn from the bytes and
  // words the rules react to.
  static constexpr std::string_view kPieces[] = {
      "entity", "architecture", "end", "is", "of", "port", "(", ")", ":", ";", "<=", ".",
      "work", "signal", "begin", "process", "if", "module", "endmodule", "wire", "[", "]",
      "assign", "\"", "'", "--", "//", " ", "\n", {"\0", 1}, "\x80", "x", "7",
  };
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SplitMix64 rng(seed);
    const size_t len = rng.next() % 600;
    std::string bytes;
    std::string words;
    for (size_t i = 0; i < len; ++i) {
      bytes += static_cast<char>(rng.next());
      words += kPieces[rng.next() % std::size(kPieces)];
    }
    expectCheckersTerminate(bytes);
    expectCheckersTerminate(words);
  }
}

TEST(FuzzHdlCheck, PrefixesOfTable1Designs) {
  for (const auto& k : bench::kTable1Kernels) {
    CompileOptions opt;
    if (k.targetStageDelayNs > 0) opt.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    opt.emitVerilog = true;
    const CompileResult r = Compiler(opt).compileSource(k.source);
    ASSERT_TRUE(r.ok) << k.name;
    ASSERT_FALSE(r.verilog.empty()) << k.name;
    for (const std::string* text : {&r.vhdl, &r.verilog}) {
      for (size_t n = 0; n <= text->size(); n += 97) {
        SCOPED_TRACE(std::string(k.name) + " prefix " + std::to_string(n));
        expectCheckersTerminate(text->substr(0, n));
      }
    }
  }
}

} // namespace
} // namespace roccc
