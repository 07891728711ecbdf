#include "synth/timing.hpp"

#include <cmath>
#include <sstream>
#include <vector>

namespace roccc::synth {

namespace {

const char* const kPrimitiveNames[kPrimitiveCount] = {
    "add", "mul-lut", "mul18", "div", "logic", "shift", "cmp", "mux", "reg", "rom",
};

/// Closed-form Virtex-II-class characterization, evaluated densely into the
/// breakpoint table. These formulas are the single source of truth the old
/// src/dp/datapath.cpp and src/synth/estimate.cpp constants collapsed into.
PrimitiveCost virtex2Row(Primitive p, int width) {
  const double w = width;
  PrimitiveCost r;
  switch (p) {
    case Primitive::Add: // LUT + MUXCY/XORCY carry chain
      r.delayNs = 0.62 + 0.042 * w;
      r.lut4 = w;
      break;
    case Primitive::MulLut: // array multiplier, w x w
      r.delayNs = 2.8 + 0.11 * w;
      r.lut4 = 0.55 * w * w;
      break;
    case Primitive::Mul18: // MULT18X18 blocks, w x w
      r.delayNs = width <= 18 ? 4.9 : 8.5;
      r.mult18 = static_cast<double>((width + 16) / 17) * ((width + 16) / 17);
      break;
    case Primitive::Div: // restoring array: one subtract-mux row per bit
      r.delayNs = w * (0.62 + 0.042 * w);
      r.lut4 = w * (w + 2);
      break;
    case Primitive::Logic: // two bits of 2-input logic per LUT4
      r.delayNs = 0.44;
      r.lut4 = (width + 1) / 2;
      break;
    case Primitive::Shift: { // barrel shifter, ceil(log2(w)) mux levels
      const int levels = static_cast<int>(std::ceil(std::log2(std::max(2.0, w))));
      r.delayNs = 0.44 * levels + 0.3;
      r.lut4 = w * levels / 2.0;
      break;
    }
    case Primitive::Cmp: // carry chain across the operands, 1-bit result
      r.delayNs = 0.55 + 0.035 * w;
      r.lut4 = (width + 1) / 2 + 1;
      break;
    case Primitive::Mux: // 2:1 per bit (LUT3)
      r.delayNs = 0.5;
      r.lut4 = w;
      break;
    case Primitive::Reg: // clock-to-out folded into clockOverheadNs
      r.delayNs = 0;
      r.ff = w;
      break;
    case Primitive::Rom: // generic table read; area priced structurally
      r.delayNs = 2.0;
      break;
  }
  return r;
}

void deriveEnergy(const TimingModel& m, PrimitiveCost& r) {
  r.dynamicPj = m.resourceDynamicPj(r.lut4, r.ff, r.mult18, r.bram);
  r.leakageUw = m.resourceLeakageUw(r.lut4, r.ff, r.mult18, r.bram);
}

PrimitiveCost lerp(const PrimitiveCost& a, const PrimitiveCost& b, double t) {
  PrimitiveCost r;
  r.delayNs = a.delayNs + (b.delayNs - a.delayNs) * t;
  r.latencyCycles = t < 0.5 ? a.latencyCycles : b.latencyCycles;
  r.lut4 = a.lut4 + (b.lut4 - a.lut4) * t;
  r.ff = a.ff + (b.ff - a.ff) * t;
  r.mult18 = a.mult18 + (b.mult18 - a.mult18) * t;
  r.bram = a.bram + (b.bram - a.bram) * t;
  r.dynamicPj = a.dynamicPj + (b.dynamicPj - a.dynamicPj) * t;
  r.leakageUw = a.leakageUw + (b.leakageUw - a.leakageUw) * t;
  return r;
}

} // namespace

const char* primitiveName(Primitive p) { return kPrimitiveNames[static_cast<int>(p)]; }

bool primitiveByName(const std::string& name, Primitive& out) {
  for (int i = 0; i < kPrimitiveCount; ++i) {
    if (name == kPrimitiveNames[i]) {
      out = static_cast<Primitive>(i);
      return true;
    }
  }
  return false;
}

double TimingModel::resourceDynamicPj(double lut4, double ff, double mult18, double bram) const {
  const double capPf = capLutPf * lut4 + capFfPf * ff + capMult18Pf * mult18 + capBramPf * bram;
  return capPf * coreVoltage * coreVoltage; // pF * V^2 = pJ
}

double TimingModel::resourceLeakageUw(double lut4, double ff, double mult18, double bram) const {
  return leakLutUw * lut4 + leakFfUw * ff + leakMult18Uw * mult18 + leakBramUw * bram;
}

const TimingModel& TimingModel::virtex2() {
  static const TimingModel model = [] {
    TimingModel m;
    // Dense rows over the width range the compiler produces (values are at
    // most 64 bits); interpolation is then exact for every reachable width.
    for (int p = 0; p < kPrimitiveCount; ++p) {
      for (int w = 1; w <= 64; ++w) {
        PrimitiveCost r = virtex2Row(static_cast<Primitive>(p), w);
        deriveEnergy(m, r);
        m.rows[static_cast<size_t>(p)][w] = r;
      }
    }
    return m;
  }();
  return model;
}

PrimitiveCost TimingModel::cost(Primitive p, int width) const {
  const auto& table = rows[static_cast<size_t>(p)];
  if (table.empty()) return {};
  auto hi = table.lower_bound(width);
  if (hi == table.end()) return std::prev(table.end())->second; // clamp above
  if (hi->first == width || hi == table.begin()) return hi->second; // exact / clamp below
  const auto lo = std::prev(hi);
  const double t = static_cast<double>(width - lo->first) / (hi->first - lo->first);
  return lerp(lo->second, hi->second, t);
}

const TimingModel* TimingModel::resolve(const std::string& spec, TimingModel& storage,
                                        std::string& error) {
  if (spec.empty()) return &virtex2();
  return parse(spec, storage, error) ? &storage : nullptr;
}

bool TimingModel::parse(const std::string& text, TimingModel& out, std::string& error) {
  out = virtex2();
  std::vector<char> overridden(kPrimitiveCount, 0);
  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  auto fail = [&](const std::string& msg) {
    error = "line " + std::to_string(lineNo) + ": " + msg;
    return false;
  };
  while (std::getline(in, line)) {
    ++lineNo;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue; // blank / comment
    double* scalar = nullptr;
    if (key == "model") {
      if (!(ls >> out.name)) return fail("'model' needs a name");
      continue;
    } else if (key == "clock-overhead-ns") {
      scalar = &out.clockOverheadNs;
    } else if (key == "routing-per-hop-ns") {
      scalar = &out.routingPerHopNs;
    } else if (key == "core-voltage") {
      scalar = &out.coreVoltage;
    } else if (key == "bram-access-ns") {
      scalar = &out.bramAccessNs;
    } else if (key == "rom-mux-level-ns") {
      scalar = &out.romMuxLevelNs;
    } else if (key == "cap-lut-pf") {
      scalar = &out.capLutPf;
    } else if (key == "cap-ff-pf") {
      scalar = &out.capFfPf;
    } else if (key == "cap-mult18-pf") {
      scalar = &out.capMult18Pf;
    } else if (key == "cap-bram-pf") {
      scalar = &out.capBramPf;
    } else if (key == "leak-lut-uw") {
      scalar = &out.leakLutUw;
    } else if (key == "leak-ff-uw") {
      scalar = &out.leakFfUw;
    } else if (key == "leak-mult18-uw") {
      scalar = &out.leakMult18Uw;
    } else if (key == "leak-bram-uw") {
      scalar = &out.leakBramUw;
    }
    if (scalar) {
      if (!(ls >> *scalar)) return fail("'" + key + "' needs a numeric value");
      if (!std::isfinite(*scalar) || *scalar < 0) return fail("'" + key + "' must be >= 0");
      continue;
    }
    Primitive p;
    if (!primitiveByName(key, p)) return fail("unknown directive or primitive '" + key + "'");
    int width = 0;
    PrimitiveCost r;
    if (!(ls >> width >> r.delayNs >> r.latencyCycles >> r.lut4 >> r.ff)) {
      return fail("row needs: <primitive> <width> <delay-ns> <latency> <lut4> <ff>");
    }
    if (width < 1 || width > 4096) return fail("width out of range");
    if (!std::isfinite(r.delayNs) || r.delayNs < 0 || r.latencyCycles < 0 || r.lut4 < 0 ||
        r.ff < 0) {
      return fail("row values must be >= 0");
    }
    bool haveEnergy = false;
    if (ls >> r.mult18 >> r.bram) {
      if (r.mult18 < 0 || r.bram < 0) return fail("row values must be >= 0");
      if (ls >> r.dynamicPj >> r.leakageUw) {
        if (r.dynamicPj < 0 || r.leakageUw < 0) return fail("row values must be >= 0");
        haveEnergy = true;
      }
    }
    std::string trailing;
    if (ls >> trailing) return fail("trailing garbage '" + trailing + "'");
    if (!haveEnergy) deriveEnergy(out, r);
    auto& table = out.rows[static_cast<size_t>(p)];
    if (!overridden[static_cast<size_t>(static_cast<int>(p))]) {
      table.clear(); // first row for a primitive replaces its built-in rows
      overridden[static_cast<size_t>(static_cast<int>(p))] = 1;
    }
    table[width] = r;
  }
  for (int p = 0; p < kPrimitiveCount; ++p) {
    if (out.rows[static_cast<size_t>(p)].empty()) {
      lineNo = 0;
      return fail(std::string("primitive '") + kPrimitiveNames[p] + "' has no rows");
    }
  }
  error.clear();
  return true;
}

std::string TimingModel::dump() const {
  std::ostringstream os;
  os << "model " << name << "\n";
  os << "clock-overhead-ns " << clockOverheadNs << "\n";
  os << "routing-per-hop-ns " << routingPerHopNs << "\n";
  os << "core-voltage " << coreVoltage << "\n";
  os << "bram-access-ns " << bramAccessNs << "\n";
  os << "rom-mux-level-ns " << romMuxLevelNs << "\n";
  os << "cap-lut-pf " << capLutPf << "\ncap-ff-pf " << capFfPf << "\ncap-mult18-pf "
     << capMult18Pf << "\ncap-bram-pf " << capBramPf << "\n";
  os << "leak-lut-uw " << leakLutUw << "\nleak-ff-uw " << leakFfUw << "\nleak-mult18-uw "
     << leakMult18Uw << "\nleak-bram-uw " << leakBramUw << "\n";
  for (int p = 0; p < kPrimitiveCount; ++p) {
    for (const auto& [w, r] : rows[static_cast<size_t>(p)]) {
      os << kPrimitiveNames[p] << ' ' << w << ' ' << r.delayNs << ' ' << r.latencyCycles << ' '
         << r.lut4 << ' ' << r.ff << ' ' << r.mult18 << ' ' << r.bram << ' ' << r.dynamicPj
         << ' ' << r.leakageUw << "\n";
    }
  }
  return os.str();
}

} // namespace roccc::synth
