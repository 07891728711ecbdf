// Table 1 computed once: "A comparison of hardware performance from Xilinx
// IPs and ROCCC-generated VHDL code" — clock (MHz) and area (slices) for
// nine designs, IP baseline vs compiler output. bench_table1 prints it and
// tests/synth_ip_test.cpp asserts the paper's bands on the same rows.
//
// The Xilinx ISE 5.1i toolchain is substituted by the structural synthesis
// model in src/synth (see DESIGN.md); baselines are the expert netlists in
// src/ip. For the cos and arbitrary-LUT rows ROCCC instantiates the
// pre-existing IP component, so both columns are identical by construction
// (paper section 5: "they have exactly the same performance").
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ip/ip.hpp"
#include "kernels.hpp"
#include "roccc/compiler.hpp"
#include "synth/estimate.hpp"

namespace roccc::bench {

/// One Table 1 row. %Clock and %Area follow the paper's convention:
/// ROCCC / IP.
struct Table1Row {
  std::string name;
  double ipClock = 0;
  int64_t ipArea = 0;
  double rocccClock = 0;
  int64_t rocccArea = 0;
  std::string note;

  double clockRatio() const { return rocccClock / ipClock; }
  double areaRatio() const { return static_cast<double>(rocccArea) / static_cast<double>(ipArea); }
};

/// The stage timing and synthesis estimate of one compiled kernel.
struct KernelTiming {
  std::string name;
  dp::StageTiming stages;
  int stageCount = 0;
  synth::Report est;
};

struct Table1 {
  std::vector<Table1Row> rows;      ///< in the paper's order (ip::paperTable1())
  std::vector<KernelTiming> timing; ///< one per compiled kernel, in compile order

  const Table1Row& row(std::string_view name) const {
    for (const Table1Row& r : rows) {
      if (r.name == name) return r;
    }
    throw std::out_of_range("no Table 1 row named " + std::string(name));
  }
};

/// Compiles the kTable1Kernels entry `name` with its stage-delay target.
/// Throws std::runtime_error with the diagnostics when the compile fails.
inline CompileResult compileTable1Kernel(std::string_view name) {
  for (const NamedKernel& k : kTable1Kernels) {
    if (std::string_view(k.name) != name) continue;
    CompileOptions opt;
    if (k.targetStageDelayNs > 0) opt.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    CompileResult r = Compiler(opt).compileSource(k.source);
    if (!r.ok) throw std::runtime_error(std::string(name) + " failed to compile:\n" + r.diags.dump());
    return r;
  }
  throw std::out_of_range("no Table 1 kernel named " + std::string(name));
}

inline Table1 computeTable1() {
  Table1 t;
  const auto compileAndEstimate = [&t](const char* name) {
    const CompileResult r = compileTable1Kernel(name);
    const synth::Report rep = synth::estimate(r.module);
    t.timing.push_back({name, r.datapath.timing, r.datapath.stageCount, rep});
    return rep;
  };
  const auto addRow = [&t](const char* name, const synth::Report& ip, double rocccClock,
                           int64_t rocccArea, const char* note) {
    t.rows.push_back({name, ip.fmaxMHz(), ip.slices, rocccClock, rocccArea, note});
  };

  {
    const auto ip = synth::estimate(ip::buildBitCorrelator(181));
    const auto rc = compileAndEstimate("bit_correlator");
    addRow("bit_correlator", ip, rc.fmaxMHz(), rc.slices, "");
  }
  {
    const auto ip = synth::estimate(ip::buildMulAcc());
    const auto rc = compileAndEstimate("mul_acc");
    addRow("mul_acc", ip, rc.fmaxMHz(), rc.slices, "if-else adds mux nodes");
  }
  {
    const auto ip = synth::estimate(ip::buildUdiv8());
    const auto rc = compileAndEstimate("udiv");
    addRow("udiv", ip, rc.fmaxMHz(), rc.slices, "compiler-built restoring divider");
  }
  {
    const auto ip = synth::estimate(ip::buildSquareRoot24());
    const auto rc = compileAndEstimate("square_root");
    addRow("square root", ip, rc.fmaxMHz(), rc.slices, "12-step digit recurrence unrolled");
  }
  {
    const auto ip = synth::estimate(ip::buildCosLut());
    addRow("cos", ip, ip.fmaxMHz(), ip.slices, "ROCCC instantiates the IP core");
  }
  {
    std::vector<int64_t> table;
    for (int i = 0; i < 1024; ++i) table.push_back((i * i) % 65536 - 32768);
    const auto ip = synth::estimate(ip::buildArbitraryLut(table));
    addRow("arbitrary LUT", ip, ip.fmaxMHz(), ip.slices, "ROM IP instantiation");
  }
  {
    // One compiled filter; the IP holds two, as in the paper.
    const auto ip = synth::estimate(ip::buildFir5());
    const auto rc = compileAndEstimate("fir");
    addRow("FIR", ip, rc.fmaxMHz(), 2 * rc.slices, "two 5-tap filters, multiplier style LUT");
  }
  {
    const auto ip = synth::estimate(ip::buildDct8());
    const auto rc = compileAndEstimate("dct");
    addRow("DCT", ip, rc.fmaxMHz(), rc.slices, "ROCCC: 8 outputs/clock vs IP 1/clock");
  }
  {
    // Engine area adds the memory subsystem: a 5-row x 66-col image window
    // keeps 4 lines + 3 elements of 16-bit data on chip.
    const auto ip = synth::estimate(ip::buildWavelet53(64));
    const auto rc = compileAndEstimate("wavelet");
    const int64_t bufferBits = (4 * 66 + 3) * 16;
    synth::Resources engine = rc.res;
    engine += synth::memorySubsystemResources(bufferBits, /*addressGenerators=*/3, /*streams=*/3);
    addRow("Wavelet*", ip, rc.fmaxMHz(), synth::slicesFor(engine),
           "engine incl. addr gen + smart buffer");
  }
  return t;
}

} // namespace roccc::bench
