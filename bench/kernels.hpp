// The nine Table 1 workloads as ROCCC C kernels, shared by the benches and
// the examples. Port widths follow the paper's section 5 descriptions.
#pragma once

namespace roccc::bench {

// Counts the bits of an 8-bit input equal to a constant mask (mask 181).
inline constexpr const char* kBitCorrelator = R"(
void bit_correlator(const uint8 A[64], uint4 C[64]) {
  int i;
  int j;
  int cnt;
  for (i = 0; i < 64; i++) {
    cnt = 0;
    for (j = 0; j < 8; j++) {
      if (((A[i] >> j) & 1) == ((181 >> j) & 1)) {
        cnt = cnt + 1;
      }
    }
    C[i] = cnt;
  }
}
)";

// 12-bit multiplier-accumulator with the nd (new data) control expressed as
// if-else (the section 5 discussion point).
inline constexpr const char* kMulAcc = R"(
int32 acc = 0;
void mul_acc(const int12 A[64], const int12 B[64], uint1 nd, int32* out) {
  int i;
  for (i = 0; i < 64; i++) {
    if (nd) {
      acc = acc + A[i] * B[i];
    }
  }
  *out = acc;
}
)";

// The algorithm-level alternative the paper discusses: multiply by nd
// instead of branching ("one more multiplier ... but overall area and clock
// rate performance was better").
inline constexpr const char* kMulAccPredicated = R"(
int32 acc = 0;
void mul_acc(const int12 A[64], const int12 B[64], uint1 nd, int32* out) {
  int i;
  for (i = 0; i < 64; i++) {
    acc = acc + A[i] * B[i] * nd;
  }
  *out = acc;
}
)";

// 8-bit unsigned divider.
inline constexpr const char* kUdiv = R"(
void udiv(const uint8 N[64], const uint8 D[64], uint8 Q[64]) {
  int i;
  for (i = 0; i < 64; i++) {
    Q[i] = N[i] / D[i];
  }
}
)";

// 24-bit integer square root, digit recurrence written in plain C (the
// compiler fully unrolls the 12-step inner loop).
inline constexpr const char* kSquareRoot = R"(
void square_root(const uint24 X[64], uint12 R[64]) {
  int i;
  int k;
  uint26 rem;
  uint13 root;
  uint26 trial;
  uint26 two;
  for (i = 0; i < 64; i++) {
    rem = 0;
    root = 0;
    for (k = 0; k < 12; k++) {
      two = (X[i] >> (22 - 2*k)) & 3;
      rem = (rem << 2) | two;
      trial = (root << 2) | 1;
      if (rem >= trial) {
        rem = rem - trial;
        root = (root << 1) | 1;
      } else {
        root = root << 1;
      }
    }
    R[i] = root;
  }
}
)";

// cos via the pre-existing lookup-table IP (10-bit phase in, Q15 out).
inline constexpr const char* kCos = R"(
void cos_kernel(const uint10 P[64], int16 C[64]) {
  int i;
  for (i = 0; i < 64; i++) {
    C[i] = ROCCC_cos(P[i]);
  }
}
)";

// 5-tap constant-coefficient FIR (the paper instantiates two of these).
inline constexpr const char* kFir = R"(
void fir(const int8 A[68], int16 C[64]) {
  int i;
  for (i = 0; i < 64; i = i + 1) {
    C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
  }
}
)";

// 8-point 1-D DCT, 8 outputs per iteration, even/odd symmetry explored
// (integer 10-bit scaled cosine coefficients).
inline constexpr const char* kDct = R"(
void dct(const int8 X[64], int19 Y[64]) {
  int i;
  int19 s0;
  int19 s1;
  int19 s2;
  int19 s3;
  int19 d0;
  int19 d1;
  int19 d2;
  int19 d3;
  for (i = 0; i < 8; i++) {
    s0 = X[8*i]   + X[8*i+7];
    s1 = X[8*i+1] + X[8*i+6];
    s2 = X[8*i+2] + X[8*i+5];
    s3 = X[8*i+3] + X[8*i+4];
    d0 = X[8*i]   - X[8*i+7];
    d1 = X[8*i+1] - X[8*i+6];
    d2 = X[8*i+2] - X[8*i+5];
    d3 = X[8*i+3] - X[8*i+4];
    Y[8*i]   = (724*s0 + 724*s1 + 724*s2 + 724*s3) >> 10;
    Y[8*i+2] = (946*(s0 - s3) + 392*(s1 - s2)) >> 10;
    Y[8*i+4] = (724*(s0 - s1 - s2 + s3)) >> 10;
    Y[8*i+6] = (392*(s0 - s3) - 946*(s1 - s2)) >> 10;
    Y[8*i+1] = (1004*d0 + 851*d1 + 569*d2 + 200*d3) >> 10;
    Y[8*i+3] = (851*d0 - 200*d1 - 1004*d2 - 569*d3) >> 10;
    Y[8*i+5] = (569*d0 - 1004*d1 + 200*d2 + 851*d3) >> 10;
    Y[8*i+7] = (200*d0 - 569*d1 + 851*d2 - 1004*d3) >> 10;
  }
}
)";

// 2-D (5,3)-style wavelet stage: 5x3 window, lifting-like constant
// arithmetic; the engine row includes buffers and controllers.
inline constexpr const char* kWavelet = R"(
void wavelet(const int16 X[68][66], int16 S[64][64], int16 D[64][64]) {
  int i;
  int j;
  int16 p0;
  int16 p1;
  int16 p2;
  int16 u;
  for (i = 0; i < 64; i++) {
    for (j = 0; j < 64; j++) {
      p0 = X[i][j+1]   - ((X[i][j]   + X[i][j+2]) >> 1);
      p1 = X[i+2][j+1] - ((X[i+2][j] + X[i+2][j+2]) >> 1);
      p2 = X[i+4][j+1] - ((X[i+4][j] + X[i+4][j+2]) >> 1);
      u  = X[i+2][j+1] + ((p0 + p1 + 2) >> 2);
      S[i][j] = u + ((p1 + p2) >> 2);
      D[i][j] = p1;
    }
  }
}
)";

/// The nine Table 1 workloads with their Table 1 compile options, one row
/// per kernel in table order (bench/table1.hpp compiles each row this way).
/// The stage-delay targets (0 = default) set the paper's operating points:
/// udiv pipelines one restoring row per stage (how the paper's divider
/// clocked 26% above the IP), DCT trades clock for area (the paper ran it
/// at 73.5% of the IP clock), and wavelet sits near the paper's ~104 MHz.
/// This is the canonical list for bench_table1, perfbench, the
/// golden-snapshot tests and the determinism tests.
struct NamedKernel {
  const char* name;
  const char* source;
  double targetStageDelayNs; ///< 0 = BuildOptions default
};

inline constexpr NamedKernel kTable1Kernels[] = {
    {"bit_correlator", kBitCorrelator, 0},
    {"mul_acc", kMulAcc, 0},
    {"mul_acc_predicated", kMulAccPredicated, 0},
    {"udiv", kUdiv, 3.0},
    {"square_root", kSquareRoot, 0},
    {"cos", kCos, 0},
    {"fir", kFir, 0},
    {"dct", kDct, 7.5},
    {"wavelet", kWavelet, 9.0},
};

} // namespace roccc::bench
