#include "roccc/explore.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

#include "roccc/cache.hpp"
#include "rtl/system.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "synth/estimate.hpp"

namespace roccc {

namespace {

/// Metric rendering in the report (operator<< default precision; never
/// locale-dependent for these value ranges).
std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// A double in the shortest text that reads back as the same value, so
/// two distinct stage-delay targets never print alike.
std::string shortest(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

} // namespace

// --- names -------------------------------------------------------------------

const char* sweepAxisName(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::Slices: return "slices";
    case SweepAxis::FmaxMHz: return "fmax";
    case SweepAxis::Cycles: return "cycles";
    case SweepAxis::EnergyPjPerCycle: return "energy";
    case SweepAxis::EdpPjNs: return "edp";
    case SweepAxis::Throughput: return "throughput";
  }
  return "slices";
}

bool parseSweepAxis(const std::string& name, SweepAxis& out) {
  for (int a = 0; a < kSweepAxisCount; ++a) {
    if (name == sweepAxisName(static_cast<SweepAxis>(a))) {
      out = static_cast<SweepAxis>(a);
      return true;
    }
  }
  return false;
}

bool sweepAxisMaximizes(SweepAxis axis) {
  return axis == SweepAxis::FmaxMHz || axis == SweepAxis::Throughput;
}

const char* pointOutcomeName(PointOutcome outcome) {
  switch (outcome) {
    case PointOutcome::Ok: return "ok";
    case PointOutcome::FrontendError: return "frontend-error";
    case PointOutcome::Timeout: return "timeout";
    case PointOutcome::ResourceExceeded: return "resource-exceeded";
    case PointOutcome::InternalError: return "internal-error";
    case PointOutcome::SimError: return "sim-error";
  }
  return "internal-error";
}

PointOutcome pointOutcomeFrom(CompileOutcome outcome) {
  switch (outcome) {
    case CompileOutcome::Ok: return PointOutcome::Ok;
    case CompileOutcome::FrontendError: return PointOutcome::FrontendError;
    case CompileOutcome::Timeout: return PointOutcome::Timeout;
    case CompileOutcome::ResourceExceeded: return PointOutcome::ResourceExceeded;
    case CompileOutcome::InternalError: return PointOutcome::InternalError;
  }
  return PointOutcome::InternalError;
}

// --- grid -------------------------------------------------------------------

std::string_view sweepDirective(OptionId id) {
  std::string_view flag = optionRow(id).flag;
  flag.remove_prefix(2); // "--"
  if (flag.starts_with("no-")) flag.remove_prefix(3);
  return flag;
}

namespace {

/// `on`/`off`: the grid spelling of every bool axis.
bool parseOnOff(const std::string& token, bool& out) {
  if (token != "on" && token != "off") return false;
  out = token == "on";
  return true;
}

/// One axis token as the protocol value of `row`; false with what the
/// token must be in `error`.
bool axisValue(const OptionRow& row, const std::string& token, json::Value& out,
               std::string& error) {
  if (row.kind == OptionKind::Bool) {
    bool on = false;
    if (!parseOnOff(token, on)) {
      error = "must be on or off";
      return false;
    }
    out = json::Value::boolean(on);
    return true;
  }
  // targetNs 0 stands for the kernel's default: the one value an axis
  // takes that its row does not.
  char* end = nullptr;
  if (row.id == OptionId::TargetNs && std::strtod(token.c_str(), &end) == 0 &&
      end != token.c_str() && *end == '\0') {
    out = json::Value::number(int64_t{0});
    return true;
  }
  return optionValueFromText(row, token.c_str(), out, error);
}

} // namespace

bool SweepGrid::setAxis(OptionId id, const std::vector<std::string>& tokens, std::string& error) {
  const OptionRow& row = optionRow(id);
  Axis axis{id, {}};
  for (const std::string& token : tokens) {
    json::Value v;
    if (!axisValue(row, token, v, error)) {
      error = fmt("value '%0' %1", token, error);
      return false;
    }
    axis.values.push_back(std::move(v));
  }
  if (axis.values.empty()) {
    error = "needs at least one value";
    return false;
  }
  setAxis(std::move(axis));
  return true;
}

void SweepGrid::setAxis(Axis axis) {
  std::erase_if(axes, [&axis](const Axis& a) { return a.id == axis.id; });
  axes.push_back(std::move(axis));
}

cli::OptionSpec sweepAxisFlag(OptionId id, SweepGrid& grid, const char* help) {
  return {optionRow(id).flag, "LIST", help, [id, &grid](const char* v, std::string& error) {
            std::vector<std::string> tokens;
            std::stringstream ss(v);
            for (std::string item; std::getline(ss, item, ',');) tokens.push_back(item);
            if (tokens.empty()) tokens.emplace_back(); // "" is one empty value
            return grid.setAxis(id, tokens, error);
          }};
}

namespace {

/// "fir@u2/ns4" plus one tag per option off its compiler default, in
/// kSweepOptions order (a bool option's tag is its flag, "noretime"; an
/// enum option's its token, "paper"), then the geometry ("bus2", "naive").
/// Duplicate configs produce duplicate labels, but those are exactly the
/// points dedup removes.
std::string pointLabel(const SweepPoint& p) {
  static const CompileOptions kDefaults;
  const CompileOptions& o = p.options;
  std::string label = p.kernel;
  label += o.autoUnrollSliceBudget > 0 ? fmt("@auto%0", o.autoUnrollSliceBudget)
                                       : fmt("@u%0", o.unrollFactor);
  label += "/ns" + shortest(o.dpOptions.targetStageDelayNs);
  for (OptionId id : kSweepOptions) {
    const OptionRow& row = optionRow(id);
    if (row.kind != OptionKind::Bool && row.kind != OptionKind::Enum) continue;
    const json::Value v = optionToJson(row, o);
    if (v.dump() == optionToJson(row, kDefaults).dump()) continue;
    std::string tag = row.kind == OptionKind::Enum ? v.asString() : std::string(row.flag);
    std::erase(tag, '-'); // "--no-retime" -> "noretime"
    label += "/" + tag;
  }
  if (p.busElems != 1) label += fmt("/bus%0", p.busElems);
  if (!p.smartBuffer) label += "/naive";
  return label;
}

} // namespace

std::vector<SweepPoint> expandGrid(const SweepGrid& grid) {
  // The odometer's digits, outermost first: the swept options in
  // kSweepOptions order, then the two geometry axes.
  std::vector<const SweepGrid::Axis*> axes;
  for (OptionId id : kSweepOptions) {
    for (const SweepGrid::Axis& axis : grid.axes) {
      if (axis.id == id) axes.push_back(&axis);
    }
  }
  std::vector<size_t> sizes;
  for (const SweepGrid::Axis* axis : axes) sizes.push_back(axis->values.size());
  sizes.push_back(grid.busElems.size());
  sizes.push_back(grid.smartBuffer.size());
  if (std::find(sizes.begin(), sizes.end(), 0u) != sizes.end()) return {};

  std::vector<SweepPoint> points;
  std::unordered_set<std::string> seen; // kernel + compile key + geometry
  for (const auto& kernel : grid.kernels) {
    CompileOptions kernelBase = grid.base;
    if (kernel.defaultTargetNs > 0) {
      kernelBase.dpOptions.targetStageDelayNs = kernel.defaultTargetNs;
    }
    std::vector<size_t> at(sizes.size(), 0);
    while (true) {
      SweepPoint p;
      p.kernel = kernel.name;
      p.source = kernel.source;
      p.options = kernelBase;
      for (size_t i = 0; i < axes.size(); ++i) {
        const json::Value& v = axes[i]->values[at[i]];
        // A 0 target leaves the kernel's default in place, so "default"
        // and its explicit spelling dedup to one point.
        if (axes[i]->id == OptionId::TargetNs && v.asDouble() == 0) continue;
        std::string error;
        [[maybe_unused]] const bool ok =
            setOptionFromJson(optionRow(axes[i]->id), v, p.options, error);
        assert(ok && "setAxis checks every axis value");
      }
      p.busElems = grid.busElems[at[axes.size()]];
      p.smartBuffer = grid.smartBuffer[at[axes.size() + 1]];
      p.label = pointLabel(p);
      const std::string key = fmt("%0|%1|%2|%3", kernel.name, computeCacheKey(p.source, p.options),
                                  p.busElems, p.smartBuffer ? 1 : 0);
      if (seen.insert(key).second) points.push_back(std::move(p));
      // The last digit turns fastest.
      size_t i = at.size();
      while (i > 0 && ++at[i - 1] == sizes[i - 1]) at[--i] = 0;
      if (i == 0) break;
    }
  }
  return points;
}

std::string pointConfigJson(const SweepPoint& point) {
  std::string out = "{";
  for (OptionId id : kSweepOptions) {
    const OptionRow& row = optionRow(id);
    const json::Value v = optionToJson(row, point.options);
    out += fmt("\"%0\": %1, ", row.key,
               row.kind == OptionKind::PositiveDouble ? shortest(v.asDouble()) : v.dump());
  }
  return out + fmt("\"busElems\": %0, \"smartBuffer\": %1}", point.busElems,
                   point.smartBuffer ? "true" : "false");
}

// --- manifest ----------------------------------------------------------------

namespace {

/// Splits a directive line's value part on whitespace and commas.
std::vector<std::string> splitValues(const std::vector<std::string>& rawTokens) {
  std::vector<std::string> values;
  for (const auto& tok : rawTokens) {
    std::stringstream ss(tok);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) values.push_back(item);
    }
  }
  return values;
}

/// The sweep option whose directive is `directive`, or null.
const OptionId* findSweepOption(std::string_view directive) {
  for (const OptionId& id : kSweepOptions) {
    if (sweepDirective(id) == directive) return &id;
  }
  return nullptr;
}

} // namespace

bool parseSweepManifest(const std::string& text, SweepManifest& out, std::string& error) {
  out = SweepManifest{};
  std::unordered_set<std::string> seenDirectives;
  std::istringstream in(text);
  std::string line;
  int lineNo = 0;
  const auto fail = [&](const std::string& message) {
    error = fmt("line %0: %1", lineNo, message);
    return false;
  };
  while (std::getline(in, line)) {
    ++lineNo;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (ls >> tok) tokens.push_back(tok);
    if (tokens.empty()) continue;

    const std::string directive = tokens.front();
    const std::vector<std::string> values =
        splitValues({tokens.begin() + 1, tokens.end()});

    // `kernel` and `table1` accumulate; every axis directive appears at
    // most once (a repeat is almost always a typo'd second axis).
    if (directive != "kernel" && directive != "table1" &&
        !seenDirectives.insert(directive).second) {
      return fail(fmt("duplicate directive '%0'", directive));
    }

    if (directive == "kernel") {
      if (values.size() != 2) return fail("kernel needs exactly NAME and PATH");
      out.kernelFiles.push_back({values[0], values[1]});
    } else if (directive == "table1") {
      if (values.empty()) {
        out.table1All = true;
      } else {
        out.table1.insert(out.table1.end(), values.begin(), values.end());
      }
    } else if (const OptionId* id = findSweepOption(directive)) {
      if (!out.grid.setAxis(*id, values, error)) return fail(fmt("%0 %1", directive, error));
    } else if (directive == "bus-elems") {
      if (values.empty()) return fail("bus-elems needs at least one value");
      out.grid.busElems.clear();
      for (const auto& v : values) {
        int64_t n = 0;
        if (!cli::parseInt(v, n, 1, 1 << 20)) {
          return fail(fmt("bus-elems value '%0' must be an integer in [1, %1]", v, 1 << 20));
        }
        out.grid.busElems.push_back(static_cast<int>(n));
      }
    } else if (directive == "smart-buffer") {
      if (values.empty()) return fail("smart-buffer needs at least one value");
      out.grid.smartBuffer.clear();
      for (const auto& v : values) {
        bool on = false;
        if (!parseOnOff(v, on)) return fail(fmt("smart-buffer value '%0' must be on or off", v));
        out.grid.smartBuffer.push_back(on);
      }
    } else if (directive == "axes") {
      if (values.empty()) return fail("axes needs at least one value");
      out.axes.clear();
      for (const auto& v : values) {
        SweepAxis axis;
        if (!parseSweepAxis(v, axis)) return fail(fmt("unknown axis '%0'", v));
        out.axes.push_back(static_cast<int>(axis));
      }
    } else if (directive == "seed") {
      if (values.size() != 1) return fail("seed needs exactly one value");
      if (!cli::parseSeed(values[0].c_str(), out.seed)) {
        return fail(fmt("invalid seed '%0'", values[0]));
      }
      out.seedSet = true;
    } else {
      return fail(fmt("unknown directive '%0'", directive));
    }
  }
  return true;
}

// --- Pareto ------------------------------------------------------------------

std::vector<size_t> paretoFrontier(const std::vector<std::vector<double>>& rows,
                                   const std::vector<bool>& maximize) {
  // Normalize to minimization once, then O(n^2) dominance — sweeps are
  // hundreds of points, not millions.
  std::vector<std::vector<double>> norm = rows;
  for (auto& row : norm) {
    for (size_t a = 0; a < row.size() && a < maximize.size(); ++a) {
      if (maximize[a]) row[a] = -row[a];
    }
  }
  std::vector<size_t> frontier;
  for (size_t i = 0; i < norm.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < norm.size() && !dominated; ++j) {
      if (i == j) continue;
      bool allLeq = true, anyLess = false;
      for (size_t a = 0; a < norm[i].size(); ++a) {
        if (norm[j][a] > norm[i][a]) allLeq = false;
        if (norm[j][a] < norm[i][a]) anyLess = true;
      }
      dominated = allLeq && anyLess;
    }
    if (!dominated) frontier.push_back(i);
  }
  return frontier;
}

double metricValue(const PointMetrics& m, SweepAxis axis) {
  switch (axis) {
    case SweepAxis::Slices: return static_cast<double>(m.slices);
    case SweepAxis::FmaxMHz: return m.fmaxMHz;
    case SweepAxis::Cycles: return static_cast<double>(m.cycles);
    case SweepAxis::EnergyPjPerCycle: return m.energyPjPerCycle;
    case SweepAxis::EdpPjNs: return m.edpPjNs;
    case SweepAxis::Throughput: return m.throughput;
  }
  return 0;
}

// --- execution ---------------------------------------------------------------

namespace {

/// Collects one Ok point's metrics. `r` must carry the in-memory IR (a
/// fresh compile, not a cache hit). Throws nothing: simulation failures
/// come back as a SimError outcome on the result row.
void collectMetrics(const SweepPoint& point, const CompileResult& r, uint64_t seed,
                    bool collectCycles, SweepPointResult& out) {
  synth::TimingModel storage;
  std::string err;
  const synth::TimingModel* model =
      synth::TimingModel::resolve(point.options.timingModelSpec, storage, err);
  if (!model) {
    // The compile itself accepted the spec, so this cannot happen; keep
    // the containment contract anyway.
    out.outcome = PointOutcome::SimError;
    out.error = fmt("timing model: %0", err);
    return;
  }
  synth::EstimateOptions eo = synth::EstimateOptions::forModel(*model);
  eo.useMult18 = point.options.dpOptions.multStyle == dp::BuildOptions::MultStyle::Mult18;
  const synth::Report est = synth::estimate(r.module, eo);
  PointMetrics& m = out.metrics;
  m.slices = est.slices;
  m.lut4 = est.res.lut4;
  m.ff = est.res.ff;
  m.mult18 = est.res.mult18;
  m.bram = est.res.bram;
  m.stages = r.datapath.stageCount;
  m.pipelineRegBits = r.datapath.pipelineRegisterBits;
  m.balanceRegBits = r.datapath.balanceRegisterBits;
  m.criticalPathNs = est.criticalPathNs;
  m.fmaxMHz = est.fmaxMHz();
  m.energyPjPerCycle = est.energyPerCyclePj();
  m.edpPjNs = est.edpPjNs();
  if (!collectCycles) return;
  try {
    const interp::KernelIO io = deterministicStimulus(r.kernel, seed);
    rtl::SystemOptions so;
    so.inputBusElems = point.busElems;
    so.useSmartBuffer = point.smartBuffer;
    so.engine = rtl::SimEngine::Fast;
    const rtl::SystemStats stats = rtl::measureSystem(r.kernel, r.datapath, r.module, io, so);
    m.cycles = stats.cycles;
    m.bramReads = stats.bramReads;
    m.throughput = stats.steadyStateThroughput();
  } catch (const std::exception& e) {
    out.outcome = PointOutcome::SimError;
    out.error = e.what();
  } catch (const interp::InterpError& e) {
    out.outcome = PointOutcome::SimError;
    out.error = e.message;
  }
}

} // namespace

SweepResult runSweep(const std::vector<SweepPoint>& points, const SweepOptions& opt) {
  WallTimer wall;
  SweepResult result;
  result.axes = opt.axes;
  result.seed = opt.seed;

  std::vector<CompileJob> jobs;
  jobs.reserve(points.size());
  for (const auto& p : points) jobs.push_back({p.label, p.source, p.options});

  CompileService service(opt.workers);
  if (opt.cache) service.setCache(opt.cache);
  const BatchResult batch = service.compileBatch(jobs);
  result.workers = batch.workers;
  result.cacheHits = batch.cacheHits;
  result.cacheMisses = batch.cacheMisses;

  result.points.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    SweepPointResult row;
    row.point = points[i];
    const CompileResult& r = batch.results[i];
    row.outcome = pointOutcomeFrom(r.outcome);
    for (const auto& p : r.passLog) row.compileMs += p.wallMs;
    if (row.outcome != PointOutcome::Ok) {
      const auto& all = r.diags.all();
      for (const auto& d : all) {
        if (d.severity == Severity::Error) {
          row.error = d.str();
          break;
        }
      }
      if (row.error.empty() && !r.failedPass.empty()) {
        row.error = fmt("%0 in pass %1", compileOutcomeName(r.outcome), r.failedPass);
      }
      result.points.push_back(std::move(row));
      continue;
    }
    // Metric collection needs the in-memory IR (kernel info, data path,
    // netlist). A cache hit materializes only the artifact bytes, so
    // recompile locally — the determinism guarantee makes the rebuild
    // byte-equivalent, which is what keeps cold and warm sweep reports
    // identical.
    if (r.datapath.ops.empty()) {
      const Compiler compiler(points[i].options);
      const CompileResult fresh = compiler.compileSource(points[i].source);
      row.outcome = pointOutcomeFrom(fresh.outcome);
      if (row.outcome == PointOutcome::Ok) {
        collectMetrics(points[i], fresh, opt.seed, opt.collectCycles, row);
      }
    } else {
      collectMetrics(points[i], r, opt.seed, opt.collectCycles, row);
    }
    result.points.push_back(std::move(row));
  }

  // Per-kernel frontier + best config, kernels in first-appearance order.
  std::vector<bool> maximize;
  for (SweepAxis a : opt.axes) maximize.push_back(sweepAxisMaximizes(a));
  std::vector<std::string> kernelOrder;
  for (const auto& row : result.points) {
    if (std::find(kernelOrder.begin(), kernelOrder.end(), row.point.kernel) == kernelOrder.end()) {
      kernelOrder.push_back(row.point.kernel);
    }
  }
  for (const auto& kernel : kernelOrder) {
    KernelFrontier f;
    f.kernel = kernel;
    std::vector<size_t> ok;
    std::vector<std::vector<double>> rows;
    for (size_t i = 0; i < result.points.size(); ++i) {
      const auto& row = result.points[i];
      if (row.point.kernel != kernel || row.outcome != PointOutcome::Ok) continue;
      ok.push_back(i);
      std::vector<double> metrics;
      for (SweepAxis a : opt.axes) metrics.push_back(metricValue(row.metrics, a));
      rows.push_back(std::move(metrics));
    }
    for (size_t local : paretoFrontier(rows, maximize)) {
      f.points.push_back(ok[local]);
      result.points[ok[local]].pareto = true;
    }
    // Best = lowest total runtime (cycles x critical path), then area,
    // then expansion order — a single recommendation, not a judgement
    // call the frontier already encodes.
    if (!f.points.empty()) {
      f.best = f.points.front();
      for (size_t idx : f.points) {
        const PointMetrics& a = result.points[idx].metrics;
        const PointMetrics& b = result.points[f.best].metrics;
        const double ra = static_cast<double>(a.cycles) * a.criticalPathNs;
        const double rb = static_cast<double>(b.cycles) * b.criticalPathNs;
        if (ra < rb || (ra == rb && a.slices < b.slices)) f.best = idx;
      }
    }
    result.frontiers.push_back(std::move(f));
  }

  result.wallMs = wall.elapsedMs();
  return result;
}

SweepResult runSweep(const SweepGrid& grid, const SweepOptions& opt) {
  return runSweep(expandGrid(grid), opt);
}

// --- reports -----------------------------------------------------------------

int SweepResult::okCount() const {
  int n = 0;
  for (const auto& p : points) n += p.outcome == PointOutcome::Ok;
  return n;
}

int SweepResult::failedCount() const { return static_cast<int>(points.size()) - okCount(); }

std::string SweepResult::outcomeSummary() const {
  int counts[6] = {};
  for (const auto& p : points) ++counts[static_cast<int>(p.outcome)];
  std::vector<std::string> parts;
  for (int o = 0; o < 6; ++o) {
    if (counts[o] > 0) {
      parts.push_back(fmt("%0 %1", counts[o], pointOutcomeName(static_cast<PointOutcome>(o))));
    }
  }
  return join(parts, ", ");
}

std::string SweepResult::toJson(bool includeTimings) const {
  IndentWriter w;
  w.line("{");
  w.indent();
  w.line("\"schema\": \"roccc-sweep-v1\",");
  w.line(fmt("\"seed\": %0,", seed));
  std::vector<std::string> axisNames;
  for (SweepAxis a : axes) axisNames.push_back(fmt("\"%0\"", sweepAxisName(a)));
  w.line(fmt("\"axes\": [%0],", join(axisNames, ", ")));
  w.line(fmt("\"points\": %0,", points.size()));
  w.line(fmt("\"ok\": %0,", okCount()));
  w.line(fmt("\"failed\": %0,", failedCount()));
  w.line("\"results\": [");
  w.indent();
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPointResult& p = points[i];
    w.line("{");
    w.indent();
    w.line(fmt("\"kernel\": \"%0\",", json::escape(p.point.kernel)));
    w.line(fmt("\"label\": \"%0\",", json::escape(p.point.label)));
    w.line(fmt("\"config\": %0,", pointConfigJson(p.point)));
    w.line(fmt("\"outcome\": \"%0\",", pointOutcomeName(p.outcome)));
    if (!p.error.empty()) w.line(fmt("\"error\": \"%0\",", json::escape(p.error)));
    if (includeTimings) w.line(fmt("\"compileMs\": %0,", num(p.compileMs)));
    if (p.outcome == PointOutcome::Ok) {
      const PointMetrics& m = p.metrics;
      w.line(fmt("\"metrics\": {\"slices\": %0, \"lut4\": %1, \"ff\": %2, \"mult18\": %3, "
                 "\"bram\": %4, \"stages\": %5, \"pipelineRegBits\": %6, \"balanceRegBits\": %7,",
                 m.slices, m.lut4, m.ff, m.mult18, m.bram, m.stages, m.pipelineRegBits,
                 m.balanceRegBits));
      w.line(fmt("            \"criticalPathNs\": %0, \"fmaxMHz\": %1, \"cycles\": %2, "
                 "\"bramReads\": %3, \"throughput\": %4,",
                 num(m.criticalPathNs), num(m.fmaxMHz), m.cycles, m.bramReads,
                 num(m.throughput)));
      w.line(fmt("            \"energyPjPerCycle\": %0, \"edpPjNs\": %1},",
                 num(m.energyPjPerCycle), num(m.edpPjNs)));
    }
    w.line(fmt("\"pareto\": %0", p.pareto ? "true" : "false"));
    w.dedent();
    w.line(fmt("}%0", i + 1 < points.size() ? "," : ""));
  }
  w.dedent();
  w.line("],");
  w.line("\"frontiers\": [");
  w.indent();
  for (size_t i = 0; i < frontiers.size(); ++i) {
    const KernelFrontier& f = frontiers[i];
    std::vector<std::string> labels;
    for (size_t idx : f.points) {
      labels.push_back(fmt("\"%0\"", json::escape(points[idx].point.label)));
    }
    std::string entry = fmt("{\"kernel\": \"%0\", \"points\": [%1]", json::escape(f.kernel),
                            join(labels, ", "));
    if (!f.points.empty()) {
      entry += fmt(", \"best\": \"%0\"", json::escape(points[f.best].point.label));
    }
    entry += fmt("}%0", i + 1 < frontiers.size() ? "," : "");
    w.line(entry);
  }
  w.dedent();
  if (includeTimings) {
    w.line("],");
    w.line(fmt("\"run\": {\"workers\": %0, \"wallMs\": %1, \"cacheHits\": %2, "
               "\"cacheMisses\": %3}",
               workers, num(wallMs), cacheHits, cacheMisses));
  } else {
    w.line("]");
  }
  w.dedent();
  w.line("}");
  return w.str();
}

std::string SweepResult::table() const {
  std::ostringstream os;
  std::vector<std::string> axisNames;
  for (SweepAxis a : axes) axisNames.push_back(sweepAxisName(a));
  for (const KernelFrontier& f : frontiers) {
    int total = 0;
    for (const auto& p : points) total += p.point.kernel == f.kernel;
    os << fmt("== %0: %1 points, frontier %2 (axes %3) ==\n", f.kernel, total, f.points.size(),
              join(axisNames, ","));
    char buf[256];
    std::snprintf(buf, sizeof buf, "  %c %-40s %-18s %7s %7s %6s %9s %8s %9s %8s %9s\n", ' ',
                  "label", "outcome", "slices", "fmax", "stages", "cycles", "out/clk", "bramRd",
                  "pJ/cyc", "EDP");
    os << buf;
    for (const auto& p : points) {
      if (p.point.kernel != f.kernel) continue;
      if (p.outcome != PointOutcome::Ok) {
        std::snprintf(buf, sizeof buf, "    %-40s %-18s %s\n", p.point.label.c_str(),
                      pointOutcomeName(p.outcome), p.error.c_str());
        os << buf;
        continue;
      }
      const PointMetrics& m = p.metrics;
      std::snprintf(buf, sizeof buf,
                    "  %c %-40s %-18s %7lld %7.0f %6d %9lld %8.2f %9lld %8.1f %9.1f\n",
                    p.pareto ? '*' : ' ', p.point.label.c_str(), pointOutcomeName(p.outcome),
                    static_cast<long long>(m.slices), m.fmaxMHz, m.stages,
                    static_cast<long long>(m.cycles), m.throughput,
                    static_cast<long long>(m.bramReads), m.energyPjPerCycle, m.edpPjNs);
      os << buf;
    }
  }
  return os.str();
}

std::string SweepResult::bestReport() const {
  std::ostringstream os;
  os << "best config per kernel (min runtime on the frontier, area breaking ties):\n";
  for (const KernelFrontier& f : frontiers) {
    if (f.points.empty()) {
      os << fmt("  %0: no viable point\n", f.kernel);
      continue;
    }
    const SweepPointResult& b = points[f.best];
    os << fmt("  %0: %1 — %2 slices, %3 MHz, %4 cycles, EDP %5 pJ.ns\n", f.kernel, b.point.label,
              b.metrics.slices, num(b.metrics.fmaxMHz), b.metrics.cycles, num(b.metrics.edpPjNs));
  }
  return os.str();
}

// --- frontier verification ---------------------------------------------------

VerifyReport verifyFrontier(const SweepResult& sweep, const VerifyOptions& opt) {
  VerifyReport report;
  for (const KernelFrontier& f : sweep.frontiers) {
    for (size_t idx : f.points) {
      const SweepPoint& p = sweep.points[idx].point;
      const Compiler compiler(p.options);
      const CompileResult compiled = compiler.compileSource(p.source);
      report.verdicts.push_back(verifyKernel(p.label, p.source, compiled, opt));
    }
  }
  return report;
}

} // namespace roccc
