// Quickstart: compile a C kernel to hardware, inspect the results, and
// verify the generated circuit against software — the whole public API in
// one page.
//
//   $ ./quickstart
#include <cstdio>

#include "roccc/verify.hpp"
#include "synth/estimate.hpp"
#include "vhdl/check.hpp"

int main() {
  // 1. A streaming kernel in the ROCCC C subset: a 5-tap FIR.
  const char* source = R"(
    void fir(const int16 A[36], int16 C[32]) {
      int i;
      for (i = 0; i < 32; i = i + 1) {
        C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
      }
    }
  )";

  // 2. Compile: parse -> loop transforms -> scalar replacement -> SSA ->
  //    data-path generation -> RTL -> VHDL.
  roccc::Compiler compiler;
  const roccc::CompileResult result = compiler.compileSource(source);
  if (!result.ok) {
    std::fprintf(stderr, "compilation failed:\n%s\n", result.diags.dump().c_str());
    return 1;
  }

  std::printf("== compiled kernel '%s' ==\n", result.kernel.kernelName.c_str());
  std::printf("%s", roccc::statsToTable(result.passLog).c_str());

  // 3. The generated data path: nodes, stages, inferred widths.
  std::printf("\n== data path ==\n%s\n", result.datapath.dump().c_str());

  // 4. Synthesis estimate (Virtex-II model): Table 1's two columns.
  const auto report = roccc::synth::estimate(result.module);
  std::printf("== synthesis estimate ==\n  %s\n", report.summary().c_str());

  // 5. The VHDL (validated, one component per data-path node).
  const auto check = roccc::vhdl::checkDesign(result.vhdl);
  std::printf("\n== VHDL ==\n  %d entities, %d instantiations, validator: %s\n",
              check.entityCount, check.instantiationCount, check.ok ? "OK" : "PROBLEMS");
  std::printf("  (full text in result.vhdl — %zu characters)\n", result.vhdl.size());

  // 6. Verification on real data: the interpreter on the original C is the
  //    golden model; the extracted stream model, the MIR, the data path and
  //    the cycle-accurate Fig 2 system under both netlist engines must all
  //    reproduce it bit for bit.
  roccc::interp::KernelIO inputs;
  for (int i = 0; i < 36; ++i) inputs.arrays["A"].push_back((i * 31) % 199 - 99);
  const auto verdict = roccc::verifyKernel("fir", source, result, inputs, {});
  if (!verdict.agree) {
    std::printf("\n== verification ==\n  MISMATCH: %s\n", verdict.firstProblem().c_str());
    return 1;
  }
  std::printf("\n== verification ==\n  %d engines == software", verdict.enginesRun);
  std::printf(" | %lld cycles for %lld iterations, %lld BRAM reads\n",
              static_cast<long long>(verdict.stats.cycles),
              static_cast<long long>(verdict.stats.iterations),
              static_cast<long long>(verdict.stats.bramReads));
  std::printf("  first outputs:");
  for (int i = 0; i < 6; ++i) {
    std::printf(" %lld", static_cast<long long>(verdict.outputs.arrays.at("C")[i]));
  }
  std::printf("\n");
  return 0;
}
