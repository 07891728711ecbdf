// roccc-explore — the design-space exploration driver (ROADMAP item 2).
//
//   roccc-explore [options] [grid.sweep]
//
// Declares a sweep grid (kernels x unroll x compile options x smart-buffer
// geometry), expands it to a deduplicated point list, fans the points
// through the batch compile service, collects per-point metrics
// {slices, LUT/FF/MULT18/BRAM, modeled fmax, FastSim cycles, pJ/cycle,
// EDP}, and reports the per-kernel Pareto frontier plus a "best config per
// kernel" recommendation. bench/sweeps/*.sweep are the stock grids (the
// former bench_ablation_* binaries in declarative form); docs/EXPLORE.md
// documents the grid-file format and the axis semantics.
//
// The JSON report (--json) is deterministic: byte-identical for any --jobs
// value. Wall-time accounting is exempt and only appears with --timings (in
// the report) or via --stats-json (separate file).
//
// Exit codes: 0 every point compiled and measured Ok (and, with
// --verify-pareto, every frontier point passed 5-way conformance);
// 1 the sweep completed but some points failed (their typed outcomes are
// in the report — never silently dropped); 2 usage or grid-file error
// (line-numbered); 3 a Pareto-optimal point failed conformance.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/sweep_kernels.hpp"
#include "roccc/explore.hpp"
#include "roccc/options.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

namespace {

struct Args {
  std::string manifestPath;
  std::vector<std::string> table1;     ///< --table1 names ("all" = all nine)
  std::vector<std::string> kernelSpecs; ///< --kernel NAME=PATH
  roccc::SweepGrid cliAxes;            ///< axes given as flags; override the grid file's
  std::vector<roccc::SweepAxis> axes;  ///< CLI override of the frontier axes
  bool seedSet = false;
  uint64_t seed = 0;
  int jobs = 0;
  std::string jsonPath;
  std::string statsJsonPath;
  bool timings = false;
  bool noCycles = false;
  bool verifyPareto = false;
  roccc::CompileOptions base;
  bool bestOnly = false;
  bool quiet = false;
  bool showHelp = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] [grid.sweep]\n"
               "       %s --help for the option list (docs/EXPLORE.md has the full reference)\n",
               argv0, argv0);
  return 2;
}

/// The option list: --help and the docs/EXPLORE.md sync check
/// (explore_cli_docs_in_sync) are generated from it.
std::vector<roccc::cli::OptionSpec> optionList(Args& a) {
  using roccc::OptionId;
  using roccc::cli::setFlag;
  using roccc::cli::setString;
  const auto compile = [&a](OptionId id, const char* help = nullptr) {
    return roccc::compileFlag(id, a.base, help);
  };
  return {
      {"--manifest", "FILE", "sweep grid file (also accepted as the positional argument)",
       setString(a.manifestPath)},
      {"--table1", "LIST", "add Table 1 kernels by name, or 'all' for all nine",
       [&a](const char* v, std::string&) {
         std::stringstream ss(v);
         std::string item;
         while (std::getline(ss, item, ',')) {
           if (!item.empty()) a.table1.push_back(item);
         }
         return !a.table1.empty();
       }},
      // The grid's `kernel NAME PATH` directive.
      {"--kernel", "NAME=PATH", "add a kernel from a C file (repeatable)",
       [&a](const char* v, std::string&) {
         if (std::strchr(v, '=') == nullptr) return false;
         a.kernelSpecs.emplace_back(v);
         return true;
       }},
      roccc::sweepAxisFlag(OptionId::Unroll, a.cliAxes,
                           "unroll-factor axis, comma-separated (overrides the grid file)"),
      roccc::sweepAxisFlag(OptionId::TargetNs, a.cliAxes,
                           "stage-delay-target axis in ns (0 = per-kernel default)"),
      {"--axes", "LIST", "Pareto axes: slices,fmax,cycles,energy,edp,throughput",
       [&a](const char* v, std::string&) {
         a.axes.clear();
         std::stringstream ss(v);
         std::string item;
         while (std::getline(ss, item, ',')) {
           roccc::SweepAxis axis;
           if (!roccc::parseSweepAxis(item, axis)) return false;
           a.axes.push_back(axis);
         }
         return !a.axes.empty();
       }},
      {"--seed", "N", "stimulus seed for the FastSim metric run (overrides the grid file)",
       [&a](const char* v, std::string&) {
         a.seedSet = true;
         return roccc::cli::parseSeed(v, a.seed);
       }},
      {"--jobs", "N", "compile worker threads (0 = one per hardware thread)",
       roccc::cli::setInt(a.jobs, 0)},
      {"--json", "FILE", "write the sweep report as versioned JSON (roccc-sweep-v1)",
       setString(a.jsonPath)},
      {"--timings", nullptr, "include wall-time accounting in the JSON report",
       setFlag(a.timings)},
      {"--stats-json", "FILE", "write run accounting (workers, wall ms, point counts) as JSON",
       setString(a.statsJsonPath)},
      {"--no-cycles", nullptr, "skip the FastSim run (area/timing-only sweep)",
       setFlag(a.noCycles)},
      {"--verify-pareto", nullptr, "re-verify every frontier point: 5-way conformance + testbench",
       setFlag(a.verifyPareto)},
      compile(OptionId::TimingModel),
      compile(OptionId::TimeoutMs, "per-point wall-clock deadline (0 = none)"),
      compile(OptionId::MaxIrNodes, "per-point cap on total live IR nodes (0 = none)"),
      compile(OptionId::InjectFault, "arm fault point P in every compile (see faultPointRegistry)"),
      {"--best-only", nullptr, "print only the best-config-per-kernel report", setFlag(a.bestOnly)},
      {"--quiet", nullptr, "only errors and the one-line outcome summary", setFlag(a.quiet)},
      {"--help", nullptr, "print this option list and exit", setFlag(a.showHelp)},
  };
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  const auto options = optionList(a);
  std::vector<std::string> positional;
  std::string error;
  if (!roccc::cli::parseArgs(argc, argv, options, positional, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }
  if (positional.size() > 1 || (!positional.empty() && !a.manifestPath.empty())) {
    return usage(argv[0]);
  }
  if (!positional.empty()) a.manifestPath = positional.front();
  if (a.showHelp) {
    roccc::cli::printHelp(
        roccc::fmt("usage: %0 [options] [grid.sweep]\n\n"
                   "Expands a sweep grid (kernels x unroll x compile options x buffer geometry),\n"
                   "compiles every point as a batch, and reports the per-kernel Pareto frontier.\n"
                   "docs/EXPLORE.md is the full reference, bench/sweeps/ the stock grids.\n\n"
                   "options:\n",
                   argv[0]),
        options,
        "\nexit codes: 0 ok, 1 failed points in the report, 2 usage/grid error,\n"
        "            3 Pareto point failed conformance\n");
    return 0;
  }
  if (a.manifestPath.empty() && a.table1.empty() && a.kernelSpecs.empty()) {
    return usage(argv[0]);
  }

  // ROCCC_FAULT_INJECT: the environment spelling of --inject-fault (the
  // explicit flag wins), same contract as roccc-cc.
  if (a.base.injectFaultAt.empty()) {
    if (const char* env = std::getenv("ROCCC_FAULT_INJECT")) a.base.injectFaultAt = env;
  }

  // --- assemble the grid: manifest first, CLI axes override -----------------
  roccc::SweepManifest manifest;
  if (!a.manifestPath.empty()) {
    std::string text;
    if (!roccc::bench::readTextFile(a.manifestPath, text)) {
      std::fprintf(stderr, "error: cannot open grid file '%s'\n", a.manifestPath.c_str());
      return 2;
    }
    if (!roccc::parseSweepManifest(text, manifest, error)) {
      std::fprintf(stderr, "error: %s: %s\n", a.manifestPath.c_str(), error.c_str());
      return 2;
    }
  }
  roccc::SweepGrid grid = manifest.grid;
  grid.base = a.base;

  // Kernels: the grid file's, then --table1, then --kernel.
  if (!roccc::bench::addManifestKernels(manifest, a.manifestPath, grid, error) ||
      !roccc::bench::addTable1Kernels(a.table1, false, grid, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  for (const std::string& spec : a.kernelSpecs) {
    const size_t eq = spec.find('=');
    const std::string name = spec.substr(0, eq);
    const std::string path = spec.substr(eq + 1);
    std::string source;
    if (!roccc::bench::readTextFile(path, source)) {
      std::fprintf(stderr, "error: cannot open kernel file '%s'\n", path.c_str());
      return 2;
    }
    grid.kernels.push_back({name, source, 0});
  }
  if (grid.kernels.empty()) {
    std::fprintf(stderr, "error: no kernels (grid file with table1/kernel, --table1, or --kernel)\n");
    return 2;
  }
  for (const roccc::SweepGrid::Axis& axis : a.cliAxes.axes) grid.setAxis(axis);

  roccc::SweepOptions opt;
  if (!manifest.axes.empty()) {
    opt.axes.clear();
    for (int axis : manifest.axes) opt.axes.push_back(static_cast<roccc::SweepAxis>(axis));
  }
  if (!a.axes.empty()) opt.axes = a.axes;
  if (manifest.seedSet) opt.seed = manifest.seed;
  if (a.seedSet) opt.seed = a.seed;
  opt.workers = a.jobs;
  opt.collectCycles = !a.noCycles;

  // --- run ------------------------------------------------------------------
  const std::vector<roccc::SweepPoint> points = roccc::expandGrid(grid);
  if (points.empty()) {
    std::fprintf(stderr, "error: the grid expands to zero points\n");
    return 2;
  }
  const roccc::SweepResult sweep = roccc::runSweep(points, opt);

  if (!a.quiet && !a.bestOnly) std::fputs(sweep.table().c_str(), stdout);
  if (!a.quiet) std::fputs(sweep.bestReport().c_str(), stdout);
  std::printf("sweep: %zu points (%s) on %d worker(s), %.1f ms\n", sweep.points.size(),
              sweep.outcomeSummary().c_str(), sweep.workers, sweep.wallMs);

  if (!a.jsonPath.empty()) {
    std::ofstream out(a.jsonPath);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", a.jsonPath.c_str());
      return 2;
    }
    out << sweep.toJson(a.timings).pretty();
  }
  if (!a.statsJsonPath.empty()) {
    std::ofstream out(a.statsJsonPath);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", a.statsJsonPath.c_str());
      return 2;
    }
    using roccc::json::Value;
    Value run = Value::object({{"workers", sweep.workers}, {"wallMs", sweep.wallMs},
                               {"points", sweep.points.size()}, {"ok", sweep.okCount()},
                               {"failed", sweep.failedCount()}});
    out << Value::object({{"run", std::move(run)}}).pretty();
  }

  if (a.verifyPareto) {
    roccc::VerifyOptions vopt;
    vopt.seed = opt.seed;
    vopt.checkTestbench = true;
    const roccc::VerifyReport report = roccc::verifyFrontier(sweep, vopt);
    std::printf("frontier conformance: %s\n", report.summary().c_str());
    if (!report.allAgree()) {
      for (const auto& v : report.verdicts) {
        if (!v.agree || !v.testbenchPassed) {
          std::fprintf(stderr, "FAIL %s: %s\n", v.kernel.c_str(),
                       v.compileError.empty() ? "engines disagree or testbench failed"
                                              : v.compileError.c_str());
        }
      }
      return 3;
    }
  }

  return sweep.failedCount() == 0 ? 0 : 1;
}
