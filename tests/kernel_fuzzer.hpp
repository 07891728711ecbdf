// KernelFuzzer — random streaming-kernel generator in the ROCCC C subset,
// shared by the end-to-end fuzz suite (fuzz_test.cpp) and the thread-pool
// stress suite (driver_stress_test.cpp). Generation is a pure function of
// the seed: the same seed always yields the same source and inputs, which
// is what lets the stress tests compare parallel batches against serial
// reference compiles byte-for-byte.
#pragma once

#include <string>

#include "interp/interp.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/value.hpp"

namespace roccc {

class KernelFuzzer {
 public:
  explicit KernelFuzzer(uint64_t seed) : rng_(seed) {}

  /// Generates a kernel plus matching random inputs.
  struct Generated {
    std::string source;
    interp::KernelIO inputs;
  };

  Generated generate() {
    Generated g;
    const int taps = 1 + pick(4);               // window 1..5
    const int stride = 1 << pick(2);            // 1 or 2
    const int iters = 8 + pick(8);              // 8..15
    const int inLen = stride * (iters - 1) + taps;
    const int elemBits = 4 + pick(13);          // 4..16
    const bool elemSigned = pick(2) == 0;
    const ScalarType elemTy = ScalarType::make(elemBits, elemSigned);
    useFeedback_ = pick(3) == 0;
    useBranch_ = pick(2) == 0;
    useInduction_ = pick(4) == 0;
    // Sometimes route a window element through a pure unary callee — these
    // are the calls the compiler may either inline or turn into lookup
    // tables (convertCallsToLuts), so both paths get fuzz coverage. The
    // callee input width stays within the default 10-bit LUT index limit.
    useCallee_ = elemBits <= 8 && pick(2) == 0;

    std::string body = expr(3, taps, stride);
    if (useCallee_) body = fmt("(%0 + u)", body);
    std::string stmts;
    if (useCallee_) {
      stmts += fmt("      hfn(%0, u);\n", windowRef(taps, stride));
    }
    if (useBranch_) {
      const std::string cond = fmt("%0 < %1", windowRef(taps, stride), literal());
      stmts += fmt("      if (%0) { t = %1; } else { t = %2; }\n", cond, body, expr(2, taps, stride));
    } else {
      stmts += fmt("      t = %0;\n", body);
    }
    for (int i = 0; i < inLen; ++i) {
      g.inputs.arrays["A"].push_back(rng_.inRange(elemTy.minValue(), elemTy.maxValue()));
    }
    // Sometimes add a window element divided or reduced by a constant,
    // drawn after the inputs so that no other draw of a seed moves.
    if (pick(3) == 0) {
      const int64_t divisors[] = {1, -1, 2, -2, 3, -3, 7, 9, -9, 10, 16, 255};
      const int64_t c = divisors[pick(12)];
      const char* op = pick(2) == 0 ? "/" : "%";
      stmts += fmt("      t = t + %0 %1 %2;\n", windowRef(taps, stride), op, c);
    }
    if (useFeedback_) {
      stmts += "      s = s + t;\n";
      stmts += "      C[i] = s;\n";
    } else {
      stmts += "      C[i] = t;\n";
    }

    const std::string helper =
        useCallee_ ? fmt("void hfn(%0 x, int32* r) { *r = ((x * 11) ^ (x >> 2)) - 29; }\n",
                         elemTy.str())
                   : std::string();
    g.source = fmt(R"(
%4%5void k(const %0 A[%1], int32 C[%2]) {
  int i;
  int32 t;
%6  for (i = 0; i < %2; i++) {
%3  }
}
)", elemTy.str(), inLen, iters, stmts, helper, useFeedback_ ? "int32 s = 0;\n" : "",
        useCallee_ ? "  int32 u;\n" : "");
    return g;
  }

 private:
  SplitMix64 rng_;
  bool useFeedback_ = false;
  bool useBranch_ = false;
  bool useInduction_ = false;
  bool useCallee_ = false;

  int pick(int n) { return static_cast<int>(rng_.inRange(0, n - 1)); }

  std::string literal() { return std::to_string(pick(64) - 32); }

  std::string windowRef(int taps, int stride) {
    const int off = pick(taps);
    if (stride == 1 && off == 0) return "A[i]";
    if (stride == 1) return fmt("A[i+%0]", off);
    return off == 0 ? fmt("A[%0*i]", stride) : fmt("A[%0*i+%1]", stride, off);
  }

  std::string expr(int depth, int taps, int stride) {
    if (depth == 0 || pick(3) == 0) {
      switch (pick(useInduction_ ? 3 : 2)) {
        case 0: return windowRef(taps, stride);
        case 1: return literal();
        default: return "i";
      }
    }
    const char* ops[] = {"+", "-", "*", "&", "|", "^", ">>", "<<"};
    const std::string op = ops[pick(8)];
    const std::string lhs = expr(depth - 1, taps, stride);
    // Shift amounts must stay small and non-negative.
    const std::string rhs = (op == ">>" || op == "<<") ? std::to_string(pick(5))
                                                       : expr(depth - 1, taps, stride);
    return fmt("(%0 %1 %2)", lhs, op, rhs);
  }
};

} // namespace roccc
