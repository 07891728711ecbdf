// Reproduces Figure 7: the accumulator data path with its feedback latch —
// the SNX instruction "must have a latch to store the feedback signal to
// the corresponding LPR instruction" — and shows the latch placement that
// keeps the feedback loop inside a single pipeline stage so the
// accumulator sustains one iteration per clock.
#include <cstdio>

#include "roccc/verify.hpp"

static const char* kMac = R"(
int32 acc = 0;
void mac(const int12 A[32], const int12 B[32], int32* out) {
  int i;
  for (i = 0; i < 32; i++) {
    acc = acc + A[i] * B[i];
  }
  *out = acc;
}
)";

int main() {
  using namespace roccc;
  Compiler c;
  const CompileResult r = c.compileSource(kMac);
  if (!r.ok) {
    std::fprintf(stderr, "%s\n", r.diags.dump().c_str());
    return 1;
  }

  std::printf("Figure 7 - multiply-accumulate data path, stage map:\n\n");
  std::printf("%s\n", r.datapath.dump().c_str());

  const auto& fb = r.datapath.feedbacks.at(0);
  const auto& dp = r.datapath;
  const int lprStage = dp.ops[static_cast<size_t>(dp.values[static_cast<size_t>(fb.lprValue)].def)].stage;
  const int snxStage = dp.ops[static_cast<size_t>(dp.values[static_cast<size_t>(fb.snxValue)].def)].stage;
  std::printf("feedback register '%s': LPR read in stage %d, SNX store in stage %d\n",
              fb.name.c_str(), lprStage, snxStage);
  std::printf("  -> the loop closes through ONE latch (II = 1): %s\n",
              lprStage == snxStage ? "YES" : "NO (error)");
  std::printf("pipeline stages total: %d (the multiplier sits in an earlier stage;\n"
              "its product is registered into the feedback stage)\n", dp.stageCount);

  // Demonstrate II=1 on the real system.
  interp::KernelIO in;
  for (int i = 0; i < 32; ++i) {
    in.arrays["A"].push_back(i - 16);
    in.arrays["B"].push_back(2 * i + 1);
  }
  const KernelVerdict v = verifyKernel("mac", kMac, r, in, VerifyOptions{});
  std::printf("\nsystem run: %lld cycles for %lld iterations (1 accumulate per clock after fill)\n",
              static_cast<long long>(v.stats.cycles), static_cast<long long>(v.stats.iterations));
  std::printf("verification vs software: %s\n",
              v.agree ? "MATCH" : ("MISMATCH (" + v.firstProblem() + ")").c_str());
  return v.agree && lprStage == snxStage ? 0 : 1;
}
