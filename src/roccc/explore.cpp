#include "roccc/explore.hpp"

#include <algorithm>
#include <cctype>
#include <map>
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

/// Deterministic number rendering for labels and JSON (operator<< default
/// precision; never locale-dependent for these value ranges).
std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

} // namespace

// --- names -------------------------------------------------------------------

const char* widthModeName(SweepGrid::WidthMode mode) {
  switch (mode) {
    case SweepGrid::WidthMode::Declared: return "declared";
    case SweepGrid::WidthMode::PortOpcode: return "paper";
    case SweepGrid::WidthMode::Range: return "range";
  }
  return "range";
}

const char* multStyleName(dp::BuildOptions::MultStyle style) {
  return style == dp::BuildOptions::MultStyle::Mult18 ? "mult18" : "lut";
}

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

// --- expansion ---------------------------------------------------------------

namespace {

/// "fir@u2/ns4" + a tag per non-default knob. Duplicate configs produce
/// duplicate labels, but those are exactly the points dedup removes.
std::string pointLabel(const std::string& kernel, const SweepPointConfig& c) {
  std::string label = kernel;
  if (c.autoUnrollBudget > 0) {
    label += fmt("@auto%0", c.autoUnrollBudget);
  } else {
    label += fmt("@u%0", c.unroll);
  }
  label += fmt("/ns%0", num(c.targetNs));
  if (!c.retime) label += "/noretime";
  if (!c.pipeline) label += "/nopipe";
  if (!c.optimize) label += "/noopt";
  if (!c.lutConvert) label += "/nolut";
  if (c.widthMode != SweepGrid::WidthMode::Range) label += fmt("/%0", widthModeName(c.widthMode));
  if (c.multStyle != dp::BuildOptions::MultStyle::Lut) label += "/mult18";
  if (c.busElems != 1) label += fmt("/bus%0", c.busElems);
  if (!c.smartBuffer) label += "/naive";
  return label;
}

CompileOptions resolveOptions(const SweepGrid& grid, const SweepPointConfig& c) {
  CompileOptions o = grid.base;
  o.unrollFactor = c.unroll;
  o.autoUnrollSliceBudget = c.autoUnrollBudget;
  o.dpOptions.targetStageDelayNs = c.targetNs;
  o.retimePipeline = c.retime;
  o.dpOptions.pipeline = c.pipeline;
  o.optimize = c.optimize;
  o.convertCallsToLuts = c.lutConvert;
  switch (c.widthMode) {
    case SweepGrid::WidthMode::Declared:
      o.dpOptions.inferBitWidths = false;
      break;
    case SweepGrid::WidthMode::PortOpcode:
      o.dpOptions.inferBitWidths = true;
      o.dpOptions.widthMode = dp::BuildOptions::WidthMode::PortOpcode;
      break;
    case SweepGrid::WidthMode::Range:
      o.dpOptions.inferBitWidths = true;
      o.dpOptions.widthMode = dp::BuildOptions::WidthMode::RangeAnalysis;
      break;
  }
  o.dpOptions.multStyle = c.multStyle;
  return o;
}

} // namespace

std::vector<SweepPoint> expandGrid(const SweepGrid& grid) {
  std::vector<SweepPoint> points;
  std::unordered_set<std::string> seen; // kernel + compile key + geometry
  for (const auto& kernel : grid.kernels) {
    for (int unroll : grid.unrolls)
      for (int64_t autoBudget : grid.autoUnrollBudgets)
        for (double target : grid.targetNs)
          for (bool retime : grid.retime)
            for (bool pipeline : grid.pipeline)
              for (bool optimize : grid.optimize)
                for (bool lutConvert : grid.lutConvert)
                  for (SweepGrid::WidthMode widthMode : grid.widthModes)
                    for (dp::BuildOptions::MultStyle multStyle : grid.multStyles)
                      for (int busElems : grid.busElems)
                        for (bool smartBuffer : grid.smartBuffer) {
                          SweepPointConfig c;
                          c.unroll = unroll;
                          c.autoUnrollBudget = autoBudget;
                          // A 0 target resolves to the kernel's per-row
                          // default, then the grid base's — so "default"
                          // and its explicit spelling dedup to one point.
                          c.targetNs = target > 0 ? target
                                       : kernel.defaultTargetNs > 0
                                           ? kernel.defaultTargetNs
                                           : grid.base.dpOptions.targetStageDelayNs;
                          c.retime = retime;
                          c.pipeline = pipeline;
                          c.optimize = optimize;
                          c.lutConvert = lutConvert;
                          c.widthMode = widthMode;
                          c.multStyle = multStyle;
                          c.busElems = busElems;
                          c.smartBuffer = smartBuffer;

                          SweepPoint p;
                          p.kernel = kernel.name;
                          p.source = kernel.source;
                          p.config = c;
                          p.options = resolveOptions(grid, c);
                          p.label = pointLabel(kernel.name, c);

                          const std::string key =
                              fmt("%0|%1|%2|%3", kernel.name,
                                  computeCacheKey(p.source, p.options), c.busElems,
                                  c.smartBuffer ? 1 : 0);
                          if (!seen.insert(key).second) continue;
                          points.push_back(std::move(p));
                        }
  }
  return points;
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

bool parseBoolToken(const std::string& s, bool& out) {
  if (s == "on" || s == "true" || s == "1") {
    out = true;
    return true;
  }
  if (s == "off" || s == "false" || s == "0") {
    out = false;
    return true;
  }
  return false;
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

    const auto needValues = [&]() -> bool { return !values.empty(); };

    if (directive == "kernel") {
      if (values.size() != 2) return fail("kernel needs exactly NAME and PATH");
      out.kernelFiles.push_back({values[0], values[1]});
    } else if (directive == "table1") {
      if (values.empty()) {
        out.table1All = true;
      } else {
        out.table1.insert(out.table1.end(), values.begin(), values.end());
      }
    } else if (directive == "unroll" || directive == "bus-elems") {
      if (!needValues()) return fail(fmt("directive '%0' needs at least one value", directive));
      std::vector<int> list;
      for (const auto& v : values) {
        char* end = nullptr;
        const long n = std::strtol(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0' || n < 1 || n > 1 << 20) {
          return fail(fmt("invalid %0 value '%1'", directive, v));
        }
        list.push_back(static_cast<int>(n));
      }
      (directive == "unroll" ? out.grid.unrolls : out.grid.busElems) = std::move(list);
    } else if (directive == "auto-unroll-budget") {
      if (!needValues()) return fail("directive 'auto-unroll-budget' needs at least one value");
      out.grid.autoUnrollBudgets.clear();
      for (const auto& v : values) {
        char* end = nullptr;
        const long long n = std::strtoll(v.c_str(), &end, 10);
        if (end == v.c_str() || *end != '\0' || n < 0) {
          return fail(fmt("invalid auto-unroll-budget value '%0'", v));
        }
        out.grid.autoUnrollBudgets.push_back(n);
      }
    } else if (directive == "target-ns") {
      if (!needValues()) return fail("directive 'target-ns' needs at least one value");
      out.grid.targetNs.clear();
      for (const auto& v : values) {
        char* end = nullptr;
        const double d = std::strtod(v.c_str(), &end);
        if (end == v.c_str() || *end != '\0' || d < 0 || d > 1e6) {
          return fail(fmt("invalid target-ns value '%0'", v));
        }
        out.grid.targetNs.push_back(d);
      }
    } else if (directive == "retime" || directive == "pipeline" || directive == "optimize" ||
               directive == "lut-convert" || directive == "smart-buffer") {
      if (!needValues()) return fail(fmt("directive '%0' needs at least one value", directive));
      std::vector<bool> list;
      for (const auto& v : values) {
        bool b = false;
        if (!parseBoolToken(v, b)) return fail(fmt("invalid %0 value '%1' (want on/off)", directive, v));
        list.push_back(b);
      }
      if (directive == "retime") out.grid.retime = std::move(list);
      else if (directive == "pipeline") out.grid.pipeline = std::move(list);
      else if (directive == "optimize") out.grid.optimize = std::move(list);
      else if (directive == "lut-convert") out.grid.lutConvert = std::move(list);
      else out.grid.smartBuffer = std::move(list);
    } else if (directive == "width-mode") {
      if (!needValues()) return fail("directive 'width-mode' needs at least one value");
      out.grid.widthModes.clear();
      for (const auto& v : values) {
        if (v == "declared") out.grid.widthModes.push_back(SweepGrid::WidthMode::Declared);
        else if (v == "paper" || v == "portopcode")
          out.grid.widthModes.push_back(SweepGrid::WidthMode::PortOpcode);
        else if (v == "range") out.grid.widthModes.push_back(SweepGrid::WidthMode::Range);
        else return fail(fmt("invalid width-mode '%0' (want declared/paper/range)", v));
      }
    } else if (directive == "mult-style") {
      if (!needValues()) return fail("directive 'mult-style' needs at least one value");
      out.grid.multStyles.clear();
      for (const auto& v : values) {
        if (v == "lut") out.grid.multStyles.push_back(dp::BuildOptions::MultStyle::Lut);
        else if (v == "mult18") out.grid.multStyles.push_back(dp::BuildOptions::MultStyle::Mult18);
        else return fail(fmt("invalid mult-style '%0' (want lut/mult18)", v));
      }
    } else if (directive == "axes") {
      if (!needValues()) return fail("directive 'axes' needs at least one value");
      out.axes.clear();
      for (const auto& v : values) {
        SweepAxis axis;
        if (!parseSweepAxis(v, axis)) return fail(fmt("unknown axis '%0'", v));
        out.axes.push_back(static_cast<int>(axis));
      }
    } else if (directive == "seed") {
      if (values.size() != 1) return fail("seed needs exactly one value");
      char* end = nullptr;
      out.seed = std::strtoull(values[0].c_str(), &end, 0);
      if (end == values[0].c_str() || *end != '\0') {
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
  eo.useMult18 = point.config.multStyle == dp::BuildOptions::MultStyle::Mult18;
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
    so.inputBusElems = point.config.busElems;
    so.useSmartBuffer = point.config.smartBuffer;
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
    const SweepPointConfig& c = p.point.config;
    w.line("{");
    w.indent();
    w.line(fmt("\"kernel\": \"%0\",", json::escape(p.point.kernel)));
    w.line(fmt("\"label\": \"%0\",", json::escape(p.point.label)));
    w.line(fmt("\"config\": {\"unroll\": %0, \"autoUnrollBudget\": %1, \"targetNs\": %2, "
               "\"retime\": %3, \"pipeline\": %4, \"optimize\": %5, \"lutConvert\": %6, "
               "\"widthMode\": \"%7\", \"multStyle\": \"%8\"%9",
               c.unroll, c.autoUnrollBudget, num(c.targetNs), c.retime ? "true" : "false",
               c.pipeline ? "true" : "false", c.optimize ? "true" : "false",
               c.lutConvert ? "true" : "false", widthModeName(c.widthMode),
               multStyleName(c.multStyle),
               fmt(", \"busElems\": %0, \"smartBuffer\": %1},", c.busElems,
                   c.smartBuffer ? "true" : "false")));
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
