// Image-processing scenario (the application domain the paper's
// introduction motivates): a Sobel-style edge detector over an image,
// compiled to a 2-D sliding-window engine with line-buffered smart buffers,
// then run cycle-accurately and rendered as ASCII art.
//
//   $ ./edge_detect
#include <cmath>
#include <cstdio>

#include "roccc/verify.hpp"
#include "synth/estimate.hpp"

namespace {

constexpr int kW = 32;
constexpr int kH = 24;

const char* kKernel = R"(
void sobel(const uint8 IMG[24][32], uint8 EDGE[22][30]) {
  int i;
  int j;
  int gx;
  int gy;
  int mag;
  for (i = 0; i < 22; i++) {
    for (j = 0; j < 30; j++) {
      gx = (IMG[i][j+2] + 2*IMG[i+1][j+2] + IMG[i+2][j+2])
         - (IMG[i][j]   + 2*IMG[i+1][j]   + IMG[i+2][j]);
      gy = (IMG[i+2][j] + 2*IMG[i+2][j+1] + IMG[i+2][j+2])
         - (IMG[i][j]   + 2*IMG[i][j+1]   + IMG[i][j+2]);
      if (gx < 0) { gx = -gx; }
      if (gy < 0) { gy = -gy; }
      mag = gx + gy;
      if (mag > 255) { mag = 255; }
      EDGE[i][j] = mag;
    }
  }
}
)";

} // namespace

int main() {
  // Synthesize a test image: a disc and a bar.
  roccc::interp::KernelIO io;
  auto& img = io.arrays["IMG"];
  for (int y = 0; y < kH; ++y) {
    for (int x = 0; x < kW; ++x) {
      const double dx = x - 12.0, dy = y - 12.0;
      const bool disc = dx * dx + dy * dy < 49.0;
      const bool bar = x > 22 && x < 27;
      img.push_back(disc || bar ? 200 : 30);
    }
  }

  roccc::Compiler compiler;
  const auto result = compiler.compileSource(kKernel);
  if (!result.ok) {
    std::fprintf(stderr, "%s\n", result.diags.dump().c_str());
    return 1;
  }

  const auto verdict = roccc::verifyKernel("sobel", kKernel, result, io, {});
  if (!verdict.agree) {
    std::fprintf(stderr, "verification mismatch: %s\n", verdict.firstProblem().c_str());
    return 1;
  }

  std::printf("Sobel edge detector: %d-stage pipeline, %d window accesses/iteration\n",
              result.datapath.stageCount, result.kernel.inputs[0].accessCount());
  std::printf("line-buffered smart buffer capacity: %lld elements (2 lines + window)\n",
              static_cast<long long>(verdict.stats.bufferCapacityElems));
  std::printf("%lld cycles for %lld pixels; BRAM reads %lld (each pixel fetched once)\n\n",
              static_cast<long long>(verdict.stats.cycles),
              static_cast<long long>(verdict.stats.iterations),
              static_cast<long long>(verdict.stats.bramReads));

  const auto rep = roccc::synth::estimate(result.module);
  std::printf("synthesis estimate: %s\n\n", rep.summary().c_str());

  const auto& edge = verdict.outputs.arrays.at("EDGE");
  std::printf("input image                      edge map (hardware output)\n");
  for (int y = 0; y < 22; ++y) {
    for (int x = 0; x < kW; ++x) std::printf("%c", img[static_cast<size_t>(y * kW + x)] > 100 ? '#' : '.');
    std::printf("   ");
    for (int x = 0; x < 30; ++x) {
      const int64_t v = edge[static_cast<size_t>(y * 30 + x)];
      std::printf("%c", v > 200 ? '#' : (v > 80 ? '+' : ' '));
    }
    std::printf("\n");
  }
  return 0;
}
