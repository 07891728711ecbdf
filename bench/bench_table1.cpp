// Reproduces Table 1: "A comparison of hardware performance from Xilinx IPs
// and ROCCC-generated VHDL code" — clock (MHz) and area (slices) for nine
// designs, IP baseline vs compiler output, with the paper's numbers printed
// alongside for reference. The rows come from bench/table1.hpp, which
// tests/synth_ip_test.cpp asserts the paper's bands on (Table1Shape).
//
// Also printed: the stage timing and synthesis estimate per compiled
// kernel, and the compile cache's cold vs warm batch throughput, which
// must stay byte-identical and clear a 5x warm/cold floor.
#include <cstdio>
#include <memory>
#include <string>

#include "roccc/cache.hpp"
#include "roccc/driver.hpp"
#include "table1.hpp"

int main() {
  using namespace roccc;
  const bench::Table1 table = bench::computeTable1();
  const std::vector<bench::Table1Row>& rows = table.rows;

  const auto& paper = ip::paperTable1();
  std::printf("Table 1: Xilinx IP vs ROCCC-generated hardware (this reproduction, with the\n");
  std::printf("paper's ISE 5.1i numbers in brackets). %%Clock and %%Area follow the paper's\n");
  std::printf("convention: ROCCC / IP.\n\n");
  std::printf("%-15s | %21s | %21s | %15s | %15s\n", "Example", "IP clock MHz [paper]",
              "IP area slice [ppr]", "ROCCC clock MHz", "ROCCC area slc");
  std::printf("%-15s | %21s | %21s | %15s | %15s | %7s [ppr] | %7s [ppr]\n", "", "", "", "", "",
              "%Clock", "%Area");
  std::printf("----------------+-----------------------+-----------------------+-----------------+"
              "-----------------+----------------+---------------\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const bench::Table1Row& r = rows[i];
    const auto& p = paper[i];
    std::printf("%-15s | %9.0f [%5.0f]     | %9lld [%5d]     | %9.0f [%3.0f] | %9lld [%4d] | "
                "%5.3f [%5.3f] | %5.2f [%5.2f]\n",
                r.name.c_str(), r.ipClock, p.ipClockMHz, static_cast<long long>(r.ipArea),
                p.ipAreaSlices, r.rocccClock, p.rocccClockMHz, static_cast<long long>(r.rocccArea),
                p.rocccAreaSlices, r.clockRatio(), p.rocccClockMHz / p.ipClockMHz, r.areaRatio(),
                static_cast<double>(p.rocccAreaSlices) / static_cast<double>(p.ipAreaSlices));
  }
  std::printf("\nNotes:\n");
  for (const bench::Table1Row& r : rows) {
    if (!r.note.empty()) std::printf("  %-15s %s\n", r.name.c_str(), r.note.c_str());
  }
  std::printf("  (*) wavelet baseline is the handwritten engine, as in the paper.\n");

  // --- timing / energy columns ---------------------------------------------------
  // The latch placement's stage timing next to the synthesis estimate for
  // every compiled kernel: pipeline depth, worst stage against the
  // --target-ns budget, modeled fmax on both yardsticks (the dp-level report and
  // the register-to-register netlist estimate), and the energy columns
  // (per-cycle pJ at 0.25 activity, energy-delay product).
  std::printf("\nTiming and energy per ROCCC kernel (latches placed @ per-row --target-ns):\n\n");
  std::printf("  %-15s | %6s | %8s | %11s | %12s | %6s | %9s | %10s\n", "kernel", "stages",
              "worst ns", "dp fmax MHz", "est fmax MHz", "slices", "pJ/cycle", "EDP pJ*ns");
  std::printf("  ----------------+--------+----------+-------------+--------------+--------+"
              "-----------+-----------\n");
  for (const bench::KernelTiming& t : table.timing) {
    std::printf("  %-15s | %6d | %8.2f | %11.1f | %12.1f | %6lld | %9.1f | %10.1f\n",
                t.name.c_str(), t.stageCount, t.stages.worstStageNs, t.stages.fmaxMHz,
                t.est.fmaxMHz(), static_cast<long long>(t.est.slices), t.est.energyPerCyclePj(),
                t.est.edpPjNs());
  }

  // --- compile cache: cold vs warm ----------------------------------------------
  // The Table 1 sweep widened to unroll {1, 2, 4} (27 jobs) through
  // CompileCache. Pass 1 compiles cold into a fresh in-memory cache; pass 2
  // re-submits the identical batch and is served warm. A warm hit is held
  // to byte identity with the cold compile (VHDL bytes and outcome), and
  // the 8-worker warm/cold kernels/s ratio must clear 5x — the acceptance
  // floor EXPERIMENTS.md records the measured rates against.
  {
    std::vector<CompileJob> jobs;
    for (const auto& k : bench::kTable1Kernels) {
      for (const int unroll : {1, 2, 4}) {
        CompileOptions o;
        if (k.targetStageDelayNs > 0) o.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
        o.unrollFactor = unroll;
        jobs.push_back({std::string(k.name) + "/u" + std::to_string(unroll), k.source, o});
      }
    }
    const int kCacheReps = 3;
    std::printf("\nCompile cache cold vs warm (Table 1 x unroll 1/2/4 = %zu jobs, best of %d):\n\n",
                jobs.size(), kCacheReps);
    std::printf("  %-8s | %9s | %11s | %9s | %11s | %8s | %s\n", "workers", "cold ms",
                "cold krn/s", "warm ms", "warm krn/s", "speedup", "identity");
    std::printf("  ---------+-----------+-------------+-----------+-------------+----------+"
                "---------\n");
    double speedupAt8 = 0;
    for (const int workers : {1, 2, 4, 8}) {
      double bestColdMs = 0;
      double bestWarmMs = 0;
      double bestColdRate = 0;
      double bestWarmRate = 0;
      bool identical = true;
      for (int rep = 0; rep < kCacheReps; ++rep) {
        CompileService service(workers);
        auto cache = std::make_shared<CompileCache>();
        service.setCache(cache);
        const BatchResult cold = service.compileBatch(jobs);
        const BatchResult warm = service.compileBatch(jobs);
        if (!cold.allOk() || !warm.allOk()) {
          std::fprintf(stderr, "cache bench: batch failed at %d workers\n", workers);
          return 1;
        }
        for (size_t i = 0; i < jobs.size(); ++i) {
          identical = identical && warm.results[i].outcome == cold.results[i].outcome &&
                      warm.results[i].vhdl == cold.results[i].vhdl;
        }
        if (bestColdMs == 0 || cold.wallMs < bestColdMs) {
          bestColdMs = cold.wallMs;
          bestColdRate = cold.kernelsPerSecond();
        }
        if (bestWarmMs == 0 || warm.wallMs < bestWarmMs) {
          bestWarmMs = warm.wallMs;
          bestWarmRate = warm.kernelsPerSecond();
        }
      }
      const double speedup = bestWarmRate / bestColdRate;
      if (workers == 8) speedupAt8 = speedup;
      std::printf("  %8d | %9.1f | %11.1f | %9.2f | %11.1f | %7.1fx | %s\n", workers, bestColdMs,
                  bestColdRate, bestWarmMs, bestWarmRate, speedup,
                  identical ? "byte-identical" : "MISMATCH");
      if (!identical) return 1;
    }
    if (speedupAt8 < 5.0) {
      std::fprintf(stderr, "cache bench: warm speedup at 8 workers %.1fx is below the 5x floor\n",
                   speedupAt8);
      return 1;
    }
  }

  return 0;
}
