// Video-processing scenario (the paper's section 3 notes that sliding
// windows over two-dimensional data are exactly what Streams-C could not
// express): motion detection by frame differencing — TWO 2-D input streams
// flow through line-buffered smart buffers into one data path that
// thresholds the blurred difference.
//
//   $ ./motion_detect
#include <cmath>
#include <cstdio>

#include "roccc/verify.hpp"
#include "synth/estimate.hpp"

namespace {

constexpr int kW = 32;
constexpr int kH = 20;

const char* kKernel = R"(
void motion(const uint8 PREV[20][32], const uint8 CUR[20][32], uint1 MASK[18][30]) {
  int i;
  int j;
  int d00;
  int d01;
  int d02;
  int d10;
  int d11;
  int d12;
  int d20;
  int d21;
  int d22;
  int blur;
  for (i = 0; i < 18; i++) {
    for (j = 0; j < 30; j++) {
      d00 = CUR[i][j]     - PREV[i][j];     if (d00 < 0) { d00 = -d00; }
      d01 = CUR[i][j+1]   - PREV[i][j+1];   if (d01 < 0) { d01 = -d01; }
      d02 = CUR[i][j+2]   - PREV[i][j+2];   if (d02 < 0) { d02 = -d02; }
      d10 = CUR[i+1][j]   - PREV[i+1][j];   if (d10 < 0) { d10 = -d10; }
      d11 = CUR[i+1][j+1] - PREV[i+1][j+1]; if (d11 < 0) { d11 = -d11; }
      d12 = CUR[i+1][j+2] - PREV[i+1][j+2]; if (d12 < 0) { d12 = -d12; }
      d20 = CUR[i+2][j]   - PREV[i+2][j];   if (d20 < 0) { d20 = -d20; }
      d21 = CUR[i+2][j+1] - PREV[i+2][j+1]; if (d21 < 0) { d21 = -d21; }
      d22 = CUR[i+2][j+2] - PREV[i+2][j+2]; if (d22 < 0) { d22 = -d22; }
      blur = d00 + d01 + d02 + d10 + 2*d11 + d12 + d20 + d21 + d22;
      if (blur > 160) { MASK[i][j] = 1; } else { MASK[i][j] = 0; }
    }
  }
}
)";

int64_t pixel(int x, int y, double cx) {
  const double dx = x - cx, dy = y - 10.0;
  return dx * dx + dy * dy < 30.0 ? 210 : 25;
}

} // namespace

int main() {
  // Two frames of a ball moving right.
  roccc::interp::KernelIO io;
  for (int y = 0; y < kH; ++y) {
    for (int x = 0; x < kW; ++x) {
      io.arrays["PREV"].push_back(pixel(x, y, 10.0));
      io.arrays["CUR"].push_back(pixel(x, y, 16.0));
    }
  }

  roccc::Compiler compiler;
  const auto r = compiler.compileSource(kKernel);
  if (!r.ok) {
    std::fprintf(stderr, "%s\n", r.diags.dump().c_str());
    return 1;
  }
  const auto verdict = roccc::verifyKernel("motion", kKernel, r, io, {});
  if (!verdict.agree) {
    std::fprintf(stderr, "verification mismatch: %s\n", verdict.firstProblem().c_str());
    return 1;
  }

  const auto rep = roccc::synth::estimate(r.module);
  std::printf("motion detector: two 2-D input streams, 3x3 windows each\n");
  std::printf("  smart buffers: %lld elements total (two line-buffered streams)\n",
              static_cast<long long>(verdict.stats.bufferCapacityElems));
  std::printf("  %lld cycles for %lld pixels, BRAM reads %lld (each pixel of each frame once)\n",
              static_cast<long long>(verdict.stats.cycles),
              static_cast<long long>(verdict.stats.iterations),
              static_cast<long long>(verdict.stats.bramReads));
  std::printf("  estimate: %s\n\n", rep.summary().c_str());

  const auto& mask = verdict.outputs.arrays.at("MASK");
  std::printf("motion mask (hardware output): '#' = motion detected\n");
  for (int y = 0; y < 18; ++y) {
    std::printf("  ");
    for (int x = 0; x < 30; ++x) {
      std::printf("%c", mask[static_cast<size_t>(y * 30 + x)] ? '#' : '.');
    }
    std::printf("\n");
  }
  return 0;
}
