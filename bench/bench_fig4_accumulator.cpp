// Reproduces Figure 4: the accumulator, before and after feedback-variable
// detection. The compiler discovers that 'sum' carries across iterations
// and annotates the data-path function with ROCCC_load_prev /
// ROCCC_store2next.
#include <cstdio>

#include "frontend/ast.hpp"
#include "roccc/verify.hpp"

static const char* kAccumulator = R"(
int sum = 0;
void acc(const int32 A[32], int32* out) {
  int i;
  for (i = 0; i < 32; i++) {
    sum = sum + A[i];
  }
  *out = sum;
}
)";

int main() {
  using namespace roccc;
  Compiler c;
  const CompileResult r = c.compileSource(kAccumulator);
  if (!r.ok) {
    std::fprintf(stderr, "%s\n", r.diags.dump().c_str());
    return 1;
  }

  std::printf("Figure 4 (a) - accumulator in original C:\n%s\n", kAccumulator);
  std::printf("Figure 4 (c) - after feedback detection, the data-path function with the\n"
              "preserved macros (converted to LPR/SNX opcodes in the back end):\n\n%s\n",
              ast::printFunction(r.kernel.dpFunction()).c_str());
  const auto& fb = r.kernel.feedbacks.at(0);
  std::printf("Detected feedback variable: '%s' (%s), initial value %lld, exported to '%s'\n",
              fb.name.c_str(), fb.type.str().c_str(), static_cast<long long>(fb.initial),
              fb.exportedTo.c_str());

  // Show the LPR/SNX opcodes surviving into MIR.
  std::printf("\nBack-end MIR (excerpt showing lpr/snx):\n");
  const std::string mir = r.mir.dump();
  size_t pos = 0;
  int lines = 0;
  while (pos < mir.size() && lines < 40) {
    const size_t nl = mir.find('\n', pos);
    const std::string line = mir.substr(pos, nl - pos);
    if (line.find("lpr") != std::string::npos || line.find("snx") != std::string::npos ||
        line.find("func") != std::string::npos || line.find("feedback") != std::string::npos) {
      std::printf("  %s\n", line.c_str());
      ++lines;
    }
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }

  // Functional check: every engine, the Fig 2 system included, against
  // the interpreter.
  interp::KernelIO in;
  long long expect = 0;
  for (int i = 0; i < 32; ++i) {
    in.arrays["A"].push_back(i * 3 - 20);
    expect += i * 3 - 20;
  }
  const KernelVerdict v = verifyKernel("acc", kAccumulator, r, in, VerifyOptions{});
  if (!v.agree) {
    std::printf("\nVerification: MISMATCH (%s)\n", v.firstProblem().c_str());
    return 1;
  }
  const long long sum = v.outputs.scalars.at("out");
  std::printf("\nVerification: sum = %lld (expected %lld), %d engines agree (%s)\n", sum, expect,
              v.enginesRun, sum == expect ? "MATCH" : "MISMATCH");
  return sum == expect ? 0 : 1;
}
