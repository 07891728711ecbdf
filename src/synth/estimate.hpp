// Synthesis estimation for Xilinx Virtex-II (xc2v2000, speed grade -5) —
// the substitution for ISE 5.1i in the paper's evaluation. Maps RTL cells
// onto the device's resources (4-input LUTs packed two per slice, dedicated
// carry chains, MULT18X18 blocks, SRL16 shift registers, block RAM) and
// estimates the register-to-register critical path to report clock rate
// (MHz) and area (slices) — the two columns of Table 1.
//
// Absolute numbers are a structural model, not a place-and-route result;
// they are calibrated to the same order of magnitude as ISE 5.1i on -5
// silicon so that the paper's *relative* results (who is smaller/faster and
// by how much) reproduce.
#pragma once

#include <string>

#include "rtl/netlist.hpp"
#include "synth/timing.hpp"

namespace roccc::synth {

struct Resources {
  int64_t lut4 = 0;
  int64_t ff = 0;
  int64_t mult18 = 0;
  int64_t bram = 0;
  int64_t srl16 = 0; ///< shift-register LUTs (counted into slices like LUT4s)

  Resources& operator+=(const Resources& o);
};

struct EstimateOptions {
  /// Variable-input multipliers: true uses MULT18X18 blocks, false builds
  /// LUT-fabric array multipliers (ISE "multiplier style").
  bool useMult18 = true;
  /// ROM contents above this many bits go to block RAM instead of
  /// distributed (LUT) ROM.
  int64_t romBramThresholdBits = 16 * 1024;
  /// Map register chains (depth >= 3, single fanout, no clock-enable) onto
  /// SRL16 shift-register LUTs the way ISE's map does — a large area win
  /// for deeply pipelined data paths.
  bool inferSrl16 = true;
  /// Timing/energy model the per-cell costs, the per-hop routing delay and
  /// the clocking overhead are read from; null = the built-in
  /// Virtex-II-class table.
  const TimingModel* timing = nullptr;

  /// Options bound to `model`, which must outlive them.
  static EstimateOptions forModel(const TimingModel& model) {
    EstimateOptions opt;
    opt.timing = &model;
    return opt;
  }
};

struct Report {
  Resources res;
  int64_t slices = 0;
  double criticalPathNs = 1.0;
  std::string criticalThrough; ///< name of the slowest cell, for reports
  /// Switched energy of one full-activity evaluation of every mapped cell
  /// (pJ), summed from the timing model's per-primitive energy rows; scale
  /// by toggle activity for a per-cycle figure.
  double dynamicPjPerCycle = 0;
  /// Static leakage of the mapped resources (mW).
  double leakageMw = 0;
  double fmaxMHz() const { return 1000.0 / criticalPathNs; }
  /// Energy per cycle at the given activity (pJ): switched energy plus the
  /// leakage burned over one critical-path period (1 mW x 1 ns = 1 pJ).
  double energyPerCyclePj(double activity = 0.25) const {
    return dynamicPjPerCycle * activity + leakageMw * criticalPathNs;
  }
  /// Energy-delay product (pJ x ns) at the critical-path clock — the EDP
  /// column of bench_table1's timing table and of roccc-explore.
  double edpPjNs(double activity = 0.25) const {
    return energyPerCyclePj(activity) * criticalPathNs;
  }
  std::string summary() const;
};

/// Estimates one module (a data path, or a hand-built IP netlist).
Report estimate(const rtl::Module& m, const EstimateOptions& opt = {});

/// Additional area of the memory-side machinery (address generators, smart
/// buffer storage, controller) for a full engine (the wavelet row of
/// Table 1 includes them). `bufferBits` is total smart-buffer storage.
Resources memorySubsystemResources(int64_t bufferBits, int addressGenerators, int streams);

/// Slice count from packed resources (2 LUT4 + 2 FF per slice; imperfect
/// packing modeled with a fill factor).
int64_t slicesFor(const Resources& r);

} // namespace roccc::synth
