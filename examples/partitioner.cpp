// Hardware/software partitioning scenario (the profiling box of the
// paper's Fig 1 and ref [10]): profile a multi-kernel application with the
// interpreter, find the "frequently executing kernel", compile only that
// kernel to hardware, and report the estimated system-level speedup
// against a modeled embedded CPU.
//
//   $ ./partitioner
#include <cstdio>
#include <vector>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "interp/interp.hpp"
#include "roccc/verify.hpp"
#include "synth/estimate.hpp"

namespace {

// An "application" with three candidate kernels.
struct Candidate {
  const char* name;
  const char* src;
};

const Candidate kCandidates[] = {
    {"checksum",
     R"(int sum = 0;
        void checksum(const uint8 PKT[64], int32* out) {
          int i;
          for (i = 0; i < 64; i++) { sum = sum + PKT[i]; }
          *out = sum;
        })"},
    {"convolve",
     R"(void convolve(const int16 S[512], int32 Y[504]) {
          int i;
          for (i = 0; i < 504; i++) {
            Y[i] = S[i] + 2*S[i+1] + 4*S[i+2] + 8*S[i+3] + 8*S[i+4]
                 + 4*S[i+5] + 2*S[i+6] + S[i+7] + S[i+8];
          }
        })"},
    {"threshold",
     R"(void threshold(const int16 S[64], int16 T[64]) {
          int i;
          for (i = 0; i < 64; i++) {
            if (S[i] < 100) { T[i] = 0; } else { T[i] = S[i]; }
          }
        })"},
};

roccc::interp::KernelIO inputsFor(const Candidate& c) {
  roccc::interp::KernelIO io;
  if (std::string(c.name) == "checksum") {
    for (int i = 0; i < 64; ++i) io.arrays["PKT"].push_back(i * 7 % 256);
  } else if (std::string(c.name) == "convolve") {
    for (int i = 0; i < 512; ++i) io.arrays["S"].push_back((i * 37) % 400 - 200);
  } else {
    for (int i = 0; i < 64; ++i) io.arrays["S"].push_back((i * 91) % 300 - 50);
  }
  return io;
}

} // namespace

int main() {
  using namespace roccc;

  std::printf("Profiling pass (interpreter step counts, ref [10]):\n\n");
  std::printf("  %-10s | %12s | %10s\n", "kernel", "steps", "share");
  std::printf("  -----------+--------------+-----------\n");
  std::vector<uint64_t> steps;
  uint64_t total = 0;
  for (const auto& c : kCandidates) {
    DiagEngine diags;
    ast::Module m = ast::parse(c.src, diags);
    ast::analyze(m, diags);
    interp::Interpreter interp(m);
    interp.run(m.functions.back().name, inputsFor(c));
    steps.push_back(interp.stepsExecuted());
    total += interp.stepsExecuted();
  }
  size_t hot = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i] > steps[hot]) hot = i;
    std::printf("  %-10s | %12llu | %8.1f%%\n", kCandidates[i].name,
                static_cast<unsigned long long>(steps[i]), 100.0 * steps[i] / total);
  }
  std::printf("\n  -> hot kernel: '%s' goes to the FPGA fabric; the rest stay on the CPU.\n\n",
              kCandidates[hot].name);

  Compiler compiler;
  const auto r = compiler.compileSource(kCandidates[hot].src);
  if (!r.ok) {
    std::fprintf(stderr, "%s\n", r.diags.dump().c_str());
    return 1;
  }
  const auto verdict =
      verifyKernel(kCandidates[hot].name, kCandidates[hot].src, r, inputsFor(kCandidates[hot]), {});
  if (!verdict.agree) {
    std::fprintf(stderr, "verification mismatch: %s\n", verdict.firstProblem().c_str());
    return 1;
  }
  const auto rep = synth::estimate(r.module);

  // CPU model: a ~200 MHz embedded core at ~2 cycles per interpreter step
  // (the CSoC-era processors of section 1). Hardware: measured cycles at
  // the estimated clock.
  const double cpuUs = static_cast<double>(steps[hot]) * 2.0 / 200.0;
  const double hwUs = static_cast<double>(verdict.stats.cycles) / rep.fmaxMHz();
  std::printf("Hardware engine: %s\n", rep.summary().c_str());
  std::printf("  kernel time on 200 MHz CPU model : %8.2f us\n", cpuUs);
  std::printf("  kernel time on FPGA engine       : %8.2f us (%lld cycles @ %.0f MHz)\n", hwUs,
              static_cast<long long>(verdict.stats.cycles), rep.fmaxMHz());
  std::printf("  estimated kernel speedup         : %8.1fx\n", cpuUs / hwUs);
  std::printf("\n(The paper's section 1 cites 10x-100x speedups for such streaming kernels.)\n");
  return 0;
}
