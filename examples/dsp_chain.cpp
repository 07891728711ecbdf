// Signal-processing scenario: a two-kernel DSP chain — numerically
// controlled oscillator (via the cos lookup-table IP) mixing an input
// band to baseband, then a 5-tap low-pass FIR — each compiled to its own
// engine and composed through their BRAM streams, exactly the paper's
// execution model (Fig 2) chained twice.
//
//   $ ./dsp_chain
#include <cmath>
#include <cstdio>

#include "roccc/verify.hpp"
#include "synth/estimate.hpp"

namespace {

const char* kMixer = R"(
void mix(const int12 IN[256], const uint10 PHASE[256], int16 BB[256]) {
  int i;
  for (i = 0; i < 256; i++) {
    BB[i] = (IN[i] * ROCCC_cos(PHASE[i])) >> 12;
  }
}
)";

const char* kLowpass = R"(
void lowpass(const int16 BB[260], int16 OUT[256]) {
  int i;
  for (i = 0; i < 256; i++) {
    OUT[i] = (BB[i] + 3*BB[i+1] + 4*BB[i+2] + 3*BB[i+3] + BB[i+4]) >> 4;
  }
}
)";

} // namespace

int main() {
  using namespace roccc;

  // Stimulus: a 2 kHz-ish tone riding on a carrier, 12-bit samples.
  interp::KernelIO mixIo;
  for (int n = 0; n < 256; ++n) {
    const double carrier = std::cos(2 * M_PI * n * 96.0 / 1024.0);
    const double tone = std::cos(2 * M_PI * n * 5.0 / 256.0);
    mixIo.arrays["IN"].push_back(static_cast<int64_t>(1500.0 * tone * carrier));
    mixIo.arrays["PHASE"].push_back((n * 96) % 1024); // NCO phase ramp
  }

  Compiler compiler;
  const auto mixer = compiler.compileSource(kMixer);
  if (!mixer.ok) {
    std::fprintf(stderr, "mixer: %s\n", mixer.diags.dump().c_str());
    return 1;
  }
  const auto mixVerdict = verifyKernel("mixer", kMixer, mixer, mixIo, {});
  if (!mixVerdict.agree) {
    std::fprintf(stderr, "mixer verification mismatch: %s\n", mixVerdict.firstProblem().c_str());
    return 1;
  }

  // Stage 2 consumes stage 1's output BRAM (pad the window edges).
  interp::KernelIO lpIo;
  auto& bb = lpIo.arrays["BB"];
  bb = mixVerdict.outputs.arrays.at("BB");
  bb.resize(260, 0);
  const auto lp = compiler.compileSource(kLowpass);
  if (!lp.ok) {
    std::fprintf(stderr, "lowpass: %s\n", lp.diags.dump().c_str());
    return 1;
  }
  const auto lpVerdict = verifyKernel("lowpass", kLowpass, lp, lpIo, {});
  if (!lpVerdict.agree) {
    std::fprintf(stderr, "lowpass verification mismatch: %s\n", lpVerdict.firstProblem().c_str());
    return 1;
  }

  std::printf("DSP chain: NCO mixer (cos LUT IP) -> 5-tap low-pass FIR\n\n");
  for (const auto* stage : {&mixer, &lp}) {
    const auto rep = synth::estimate(stage->module);
    std::printf("  %-8s: %d stages, %s\n", stage->kernel.kernelName.c_str(),
                stage->datapath.stageCount, rep.summary().c_str());
  }
  std::printf("\n  mixer  : %lld cycles / 256 samples\n",
              static_cast<long long>(mixVerdict.stats.cycles));
  std::printf("  lowpass: %lld cycles / 256 samples\n",
              static_cast<long long>(lpVerdict.stats.cycles));

  // Show the recovered tone (crude ASCII plot of every 8th sample).
  std::printf("\n  recovered baseband (every 8th sample):\n");
  const auto& out = lpVerdict.outputs.arrays.at("OUT");
  for (int n = 8; n < 256; n += 8) {
    const int64_t v = out[static_cast<size_t>(n)];
    const int col = static_cast<int>(32 + v / 24);
    std::printf("  %4d | %*s*\n", n, col < 0 ? 0 : col, "");
  }
  std::printf("\n  hardware == software for both stages.\n");
  return 0;
}
