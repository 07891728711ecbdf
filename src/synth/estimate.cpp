#include "synth/estimate.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "support/strings.hpp"

namespace roccc::synth {

Resources& Resources::operator+=(const Resources& o) {
  lut4 += o.lut4;
  ff += o.ff;
  mult18 += o.mult18;
  bram += o.bram;
  srl16 += o.srl16;
  return *this;
}

int64_t slicesFor(const Resources& r) {
  // A Virtex-II slice holds 2 LUT4s and 2 FFs (an SRL16 occupies a LUT
  // position). Real packing shares slices between logic and registers
  // imperfectly; the fill factor matches typical map reports for
  // small/medium designs.
  const int64_t lutSlices = (r.lut4 + r.srl16 + 1) / 2;
  const int64_t ffSlices = (r.ff + 1) / 2;
  const double packed = std::max(lutSlices, ffSlices) +
                        0.35 * static_cast<double>(std::min(lutSlices, ffSlices));
  return static_cast<int64_t>(std::ceil(packed));
}

namespace {

struct CellCost {
  Resources res;
  double delayNs = 0;
  double dynamicPj = 0; ///< full-activity switched energy per evaluation
  double leakageUw = 0;
};

int widthOf(const rtl::Module& m, int net) { return m.nets[static_cast<size_t>(net)].type.width; }

bool drivenByConst(const rtl::Module& m, int net) {
  const int d = m.nets[static_cast<size_t>(net)].driver;
  return d >= 0 && m.cells[static_cast<size_t>(d)].kind == rtl::CellKind::Const;
}

/// The width a cell's silicon actually spans: its carry chain / mux tree
/// covers the widest of the output and the listed operand nets. dp-level
/// range narrowing can leave the result narrower than an operand, and the
/// old per-op constants priced only the output — undercounting compare/mux
/// chains fed by wide annotated values (the Table 1 regression in
/// tests/timing_model_test.cpp pins the corrected numbers).
int effectiveWidth(const rtl::Module& m, const rtl::Cell& c, size_t firstInput) {
  int w = c.output >= 0 ? widthOf(m, c.output) : 1;
  for (size_t i = firstInput; i < c.inputs.size(); ++i) {
    w = std::max(w, widthOf(m, c.inputs[i]));
  }
  return w;
}

CellCost cost(const rtl::Module& m, const rtl::Cell& c, const EstimateOptions& opt) {
  const TimingModel& tm = opt.timing ? *opt.timing : TimingModel::virtex2();
  CellCost k;
  const int w = c.output >= 0 ? widthOf(m, c.output) : 1;
  // Direct table rows: resources, delay and energy come straight from the
  // model (single source of truth — the old hand-rolled constants here were
  // folded into TimingModel::virtex2()).
  auto fromRow = [&](Primitive p, int width) {
    const PrimitiveCost row = tm.cost(p, width);
    k.res.lut4 = static_cast<int64_t>(std::llround(row.lut4));
    k.res.ff = static_cast<int64_t>(std::llround(row.ff));
    k.res.mult18 = static_cast<int64_t>(std::llround(row.mult18));
    k.res.bram = static_cast<int64_t>(std::llround(row.bram));
    k.delayNs = row.delayNs;
    k.dynamicPj = row.dynamicPj;
    k.leakageUw = row.leakageUw;
  };
  auto energyFromRes = [&] {
    k.dynamicPj = tm.resourceDynamicPj(static_cast<double>(k.res.lut4),
                                       static_cast<double>(k.res.ff),
                                       static_cast<double>(k.res.mult18),
                                       static_cast<double>(k.res.bram));
    k.leakageUw = tm.resourceLeakageUw(static_cast<double>(k.res.lut4),
                                       static_cast<double>(k.res.ff),
                                       static_cast<double>(k.res.mult18),
                                       static_cast<double>(k.res.bram));
  };
  switch (c.kind) {
    case rtl::CellKind::Const:
    case rtl::CellKind::Slice:
    case rtl::CellKind::Concat:
    case rtl::CellKind::Resize:
      return k; // wiring only
    case rtl::CellKind::Add:
    case rtl::CellKind::Sub:
    case rtl::CellKind::Neg:
      fromRow(Primitive::Add, effectiveWidth(m, c, 0));
      return k;
    case rtl::CellKind::Mul: {
      const int wa = widthOf(m, c.inputs[0]);
      const int wb = widthOf(m, c.inputs[1]);
      if (opt.useMult18) {
        // Block count is structural in (wa, wb); delay follows the table at
        // the widest operand (1 block <= 18 bits, a block array above).
        k.res.mult18 = std::max<int64_t>(1, ((wa + 16) / 17) * static_cast<int64_t>((wb + 16) / 17));
        k.delayNs = tm.delayNs(Primitive::Mul18, std::max(wa, wb));
      } else {
        // An asymmetric wa x wb array is the geometric mean of the two
        // square rows (lut(w) ~ k*w^2, so sqrt(lut(wa)*lut(wb)) ~ k*wa*wb).
        k.res.lut4 = static_cast<int64_t>(
            std::sqrt(tm.cost(Primitive::MulLut, wa).lut4 * tm.cost(Primitive::MulLut, wb).lut4));
        k.delayNs = tm.delayNs(Primitive::MulLut, std::max(wa, wb));
      }
      energyFromRes();
      return k;
    }
    case rtl::CellKind::And:
    case rtl::CellKind::Or:
    case rtl::CellKind::Xor:
    case rtl::CellKind::Not:
      fromRow(Primitive::Logic, effectiveWidth(m, c, 0));
      return k;
    case rtl::CellKind::Shl:
    case rtl::CellKind::Shr:
      if (drivenByConst(m, c.inputs[1])) return k; // constant shift = wiring
      // The shifted word's width sizes the barrel; the amount input only
      // picks mux levels and is excluded.
      fromRow(Primitive::Shift, std::max(w, widthOf(m, c.inputs[0])));
      return k;
    case rtl::CellKind::Eq:
    case rtl::CellKind::Ne:
    case rtl::CellKind::Lt:
    case rtl::CellKind::Le:
    case rtl::CellKind::Gt:
    case rtl::CellKind::Ge:
      // 1-bit result; the carry chain spans the operands.
      fromRow(Primitive::Cmp, std::max(widthOf(m, c.inputs[0]), widthOf(m, c.inputs[1])));
      return k;
    case rtl::CellKind::Mux:
      // Data inputs (1, 2) size the mux tree; the select (0) is excluded.
      fromRow(Primitive::Mux, effectiveWidth(m, c, 1));
      return k;
    case rtl::CellKind::Reg:
      fromRow(Primitive::Reg, w);
      return k;
    case rtl::CellKind::Rom: {
      const int64_t bits = static_cast<int64_t>(c.romData.size()) * w;
      if (bits > opt.romBramThresholdBits) {
        k.res.bram = (bits + 18 * 1024 - 1) / (18 * 1024);
        k.delayNs = tm.bramAccessNs;
      } else {
        // Distributed ROM: each LUT4 stores 16x1; the read is one LUT level
        // plus a mux level per doubling of depth.
        const int64_t depth16 = std::max<int64_t>(1, (static_cast<int64_t>(c.romData.size()) + 15) / 16);
        k.res.lut4 = depth16 * w;
        const int muxLevels = static_cast<int>(std::ceil(std::log2(static_cast<double>(depth16))));
        k.delayNs = tm.cost(Primitive::Logic, 1).delayNs + tm.romMuxLevelNs * std::max(0, muxLevels);
      }
      energyFromRes();
      return k;
    }
  }
  return k;
}

} // namespace

Report estimate(const rtl::Module& m, const EstimateOptions& opt) {
  Report rep;
  const TimingModel& tm = opt.timing ? *opt.timing : TimingModel::virtex2();
  double leakageUw = 0;

  // SRL16 inference: register chains (reg -> reg, fanout 1, no enable)
  // of depth >= 3 become shift-register LUTs: width * ceil((k-1)/16)
  // SRL16s plus one output register stage.
  std::vector<char> regAsSrl(m.cells.size(), 0);
  if (opt.inferSrl16) {
    std::vector<int> fanout(m.nets.size(), 0);
    for (const auto& c : m.cells) {
      for (int in : c.inputs) ++fanout[static_cast<size_t>(in)];
    }
    for (int p : m.outputPorts) ++fanout[static_cast<size_t>(p)];
    auto isChainReg = [&](const rtl::Cell& c) {
      return c.kind == rtl::CellKind::Reg && c.inputs.size() == 1;
    };
    // nextRegOf[net]: the chain reg reading `net` (the last one in cell
    // order), so each chain step is one lookup instead of a cell scan.
    std::vector<int> nextRegOf(m.nets.size(), -1);
    for (const auto& c : m.cells) {
      if (isChainReg(c)) nextRegOf[static_cast<size_t>(c.inputs[0])] = c.id;
    }
    // Walk chains from their heads (a chain reg whose input is NOT a
    // single-fanout chain reg).
    for (const auto& c : m.cells) {
      if (!isChainReg(c)) continue;
      const int drv = m.nets[static_cast<size_t>(c.inputs[0])].driver;
      const bool headOfChain =
          drv < 0 || !isChainReg(m.cells[static_cast<size_t>(drv)]) ||
          fanout[static_cast<size_t>(c.inputs[0])] > 1;
      if (!headOfChain) continue;
      // Extend forward while the output feeds exactly one chain reg.
      std::vector<int> chain = {c.id};
      int cur = c.id;
      for (;;) {
        const int out = m.cells[static_cast<size_t>(cur)].output;
        if (fanout[static_cast<size_t>(out)] != 1) break;
        const int nextReg = nextRegOf[static_cast<size_t>(out)];
        if (nextReg < 0) break;
        chain.push_back(nextReg);
        cur = nextReg;
      }
      if (chain.size() >= 3) {
        const int w = m.nets[static_cast<size_t>(c.output)].type.width;
        // All but the final stage collapse into SRL16s.
        const int64_t depth = static_cast<int64_t>(chain.size()) - 1;
        const int64_t srls = w * ((depth + 15) / 16);
        rep.res.srl16 += srls;
        rep.res.ff += w; // the chain's output register
        // An SRL16 switches like a LUT; the tail register like an FF.
        rep.dynamicPjPerCycle +=
            tm.resourceDynamicPj(static_cast<double>(srls), static_cast<double>(w), 0, 0);
        leakageUw += tm.resourceLeakageUw(static_cast<double>(srls), static_cast<double>(w), 0, 0);
        for (size_t i = 0; i < chain.size(); ++i) regAsSrl[static_cast<size_t>(chain[i])] = 1;
      }
    }
  }

  std::vector<double> cellDelay(m.cells.size(), 0);
  for (const auto& c : m.cells) {
    if (regAsSrl[static_cast<size_t>(c.id)]) continue; // priced as SRL16 above
    const CellCost k = cost(m, c, opt);
    rep.res += k.res;
    rep.dynamicPjPerCycle += k.dynamicPj;
    leakageUw += k.leakageUw;
    cellDelay[static_cast<size_t>(c.id)] = k.delayNs;
  }
  rep.slices = slicesFor(rep.res);
  rep.leakageMw = leakageUw / 1000.0;

  // Longest combinational path: DFS with memoization over the cell DAG
  // (registers and inputs are path sources). arrival(cell) = max over
  // combinational fan-in of arrival + routing, + own delay.
  std::vector<double> arrival(m.cells.size(), -1.0);
  std::function<double(int)> arrivalOf = [&](int cid) -> double {
    double& a = arrival[static_cast<size_t>(cid)];
    if (a >= 0) return a;
    const rtl::Cell& c = m.cells[static_cast<size_t>(cid)];
    a = 0; // break cycles defensively (registers are never recursed into)
    double in = 0;
    for (int net : c.inputs) {
      const int drv = m.nets[static_cast<size_t>(net)].driver;
      if (drv < 0) continue; // module input
      const rtl::Cell& dc = m.cells[static_cast<size_t>(drv)];
      if (dc.kind == rtl::CellKind::Reg || dc.kind == rtl::CellKind::Const) continue;
      in = std::max(in, arrivalOf(drv) + tm.routingPerHopNs);
    }
    a = in + cellDelay[static_cast<size_t>(cid)];
    return a;
  };

  double worst = 0;
  std::string worstName = "(none)";
  for (const auto& c : m.cells) {
    const double a = arrivalOf(c.id);
    if (a > worst) {
      worst = a;
      worstName = c.output >= 0 ? m.nets[static_cast<size_t>(c.output)].name : cellKindName(c.kind);
    }
  }
  rep.criticalPathNs = std::max(0.8, worst) + tm.clockOverheadNs;
  rep.criticalThrough = worstName;
  return rep;
}

Resources memorySubsystemResources(int64_t bufferBits, int addressGenerators, int streams) {
  Resources r;
  // Smart-buffer storage in SRL16s/FFs: model as FF-based line storage with
  // one LUT per 8 bits of shifting/muxing plus the controller FSMs
  // ("pre-existing parameterized FSMs in a VHDL library").
  r.ff = bufferBits;
  r.lut4 = bufferBits / 4;
  r.lut4 += int64_t{28} * addressGenerators; // counters + comparators
  r.ff += int64_t{20} * addressGenerators;
  r.lut4 += int64_t{36} * streams; // per-stream handshake/valid logic
  r.ff += int64_t{12} * streams;
  r.lut4 += 40; // higher-level controller
  r.ff += 16;
  return r;
}

double estimatePowerMw(const Resources& r, double clockMHz, double activity) {
  // Activity-based CV^2f over the mapped resources; the per-resource
  // switched capacitances (and the 1.5 V core) live in the timing model so
  // estimation and the per-primitive energy rows share one calibration.
  const TimingModel& tm = TimingModel::virtex2();
  const double pj = tm.resourceDynamicPj(static_cast<double>(r.lut4), static_cast<double>(r.ff),
                                         static_cast<double>(r.mult18),
                                         static_cast<double>(r.bram));
  // pJ * MHz = microwatts; convert to milliwatts.
  return pj * clockMHz * activity / 1000.0;
}

std::string Report::summary() const {
  std::ostringstream os;
  os << "slices=" << slices << " (lut4=" << res.lut4 << ", ff=" << res.ff
     << ", srl16=" << res.srl16 << ", mult18=" << res.mult18 << ", bram=" << res.bram
     << "), fmax=" << fmaxMHz()
     << " MHz (critical " << criticalPathNs << " ns through " << criticalThrough << ")"
     << ", energy=" << energyPerCyclePj() << " pJ/cycle (leakage " << leakageMw
     << " mW), EDP=" << edpPjNs() << " pJ*ns";
  return os.str();
}

} // namespace roccc::synth
