#include "synth/timing.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <vector>

namespace roccc::synth {

namespace {

const char* const kPrimitiveNames[kPrimitiveCount] = {
    "add", "mul-lut", "mul18", "logic", "shift", "cmp", "mux", "reg", "rom",
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

/// Reads all of `tok` as a T (an integer or a double); false if any of it
/// is not part of one.
template <typename T> bool parseWhole(const std::string& tok, T& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && ptr == end;
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
  // A scalar or a cost column: one whole token, finite and >= 0.
  auto number = [&](const std::string& what, const std::string& tok, double& v) {
    if (!parseWhole(tok, v)) return fail("'" + what + "' needs a numeric value, got '" + tok + "'");
    if (!std::isfinite(v) || v < 0) return fail("'" + what + "' must be a finite number >= 0");
    return true;
  };
  auto integer = [&](const std::string& what, const std::string& tok, int& v) {
    if (!parseWhole(tok, v)) return fail("'" + what + "' needs an integer, got '" + tok + "'");
    return true;
  };
  while (std::getline(in, line)) {
    ++lineNo;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(t);
    if (tok.empty()) continue; // blank / comment
    const std::string& key = tok[0];
    double* scalar = nullptr;
    if (key == "model") {
      if (tok.size() < 2) return fail("'model' needs a name");
      if (tok.size() > 2) return fail("trailing garbage '" + tok[2] + "'");
      out.name = tok[1];
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
      if (tok.size() < 2) return fail("'" + key + "' needs a numeric value");
      if (tok.size() > 2) return fail("trailing garbage '" + tok[2] + "'");
      if (!number(key, tok[1], *scalar)) return false;
      continue;
    }
    Primitive p;
    if (!primitiveByName(key, p)) return fail("unknown directive or primitive '" + key + "'");
    // The optional columns come in pairs: 6, 8 or 10 tokens.
    if (tok.size() > 10) return fail("trailing garbage '" + tok[10] + "'");
    if (tok.size() < 6 || tok.size() % 2 != 0) {
      return fail("row needs: <primitive> <width> <delay-ns> <latency> <lut4> <ff> "
                  "[<mult18> <bram> [<dyn-pj> <leak-uw>]]");
    }
    int width = 0;
    PrimitiveCost r;
    if (!integer("width", tok[1], width)) return false;
    if (width < 1 || width > 4096) return fail("width out of range");
    if (!integer("latency", tok[3], r.latencyCycles)) return false;
    if (r.latencyCycles < 0) return fail("'latency' must be >= 0");
    const struct {
      size_t token;
      const char* name;
      double* field;
    } columns[] = {{2, "delay-ns", &r.delayNs}, {4, "lut4", &r.lut4},
                   {5, "ff", &r.ff},            {6, "mult18", &r.mult18},
                   {7, "bram", &r.bram},        {8, "dyn-pj", &r.dynamicPj},
                   {9, "leak-uw", &r.leakageUw}};
    for (const auto& c : columns) {
      if (c.token < tok.size() && !number(c.name, tok[c.token], *c.field)) return false;
    }
    if (tok.size() < 10) deriveEnergy(out, r);
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
  std::string out;
  // Shortest round-trip text, so parse(dump()) reads every double back
  // bit for bit (as json.cpp writes numbers).
  const auto num = [&out](double v) {
    char buf[32];
    out += ' ';
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  out += "model " + name + "\n";
  const std::pair<const char*, double> scalars[] = {
      {"clock-overhead-ns", clockOverheadNs}, {"routing-per-hop-ns", routingPerHopNs},
      {"core-voltage", coreVoltage},          {"bram-access-ns", bramAccessNs},
      {"rom-mux-level-ns", romMuxLevelNs},    {"cap-lut-pf", capLutPf},
      {"cap-ff-pf", capFfPf},                 {"cap-mult18-pf", capMult18Pf},
      {"cap-bram-pf", capBramPf},             {"leak-lut-uw", leakLutUw},
      {"leak-ff-uw", leakFfUw},               {"leak-mult18-uw", leakMult18Uw},
      {"leak-bram-uw", leakBramUw}};
  for (const auto& [key, v] : scalars) {
    out += key;
    num(v);
    out += '\n';
  }
  for (int p = 0; p < kPrimitiveCount; ++p) {
    for (const auto& [w, r] : rows[static_cast<size_t>(p)]) {
      out += kPrimitiveNames[p];
      out += ' ' + std::to_string(w);
      num(r.delayNs);
      out += ' ' + std::to_string(r.latencyCycles);
      for (const double v : {r.lut4, r.ff, r.mult18, r.bram, r.dynamicPj, r.leakageUw}) num(v);
      out += '\n';
    }
  }
  return out;
}

} // namespace roccc::synth
