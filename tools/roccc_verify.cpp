// roccc-verify — N-way differential conformance over a kernel corpus.
//
//   roccc-verify [options] [kernel.c ...]
//
// For every kernel (positional files, --table1, --corpus DIR — crossed with
// every --unroll factor), compiles through roccc::CompileService and demands
// that all execution engines produce bit-identical results on the same
// deterministic stimulus:
//
//   interp       AST interpreter, original source vs the streaming model
//   mir-exec     mir::execute per iteration
//   dp-eval      dp::evaluate per iteration (inferred widths)
//   netlist-ref  cycle-accurate system under NetlistSim (reference)
//   fastsim      cycle-accurate system under FastSim (compiled)
//
// Any disagreement is reported as a minimized counterexample: kernel, first
// diverging vector index, engine and port — and, when the two netlist
// engines diverge from each other, the first diverging net and cycle.
//
// Every --opt VALUE option also accepts the --opt=VALUE spelling.
// docs/CLI.md is the full flag reference; a CI test keeps it in sync with
// the --help output generated from the option list below.
//
// Exit codes: 0 all engines agree on every kernel; 1 disagreement (or soak
// poisoning); 2 usage; 3 compile failure(s) with no disagreement.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/sweep_kernels.hpp"
#include "roccc/explore.hpp"
#include "roccc/verify.hpp"
#include "support/cli.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace {

struct Args {
  std::vector<std::string> inputs;
  bool table1 = false;
  std::string corpusDir;
  roccc::SweepGrid grid; ///< the kernels, and the --unroll axis
  roccc::VerifyOptions verify;
  int soakRounds = 0;
  std::string jsonPath;
  bool quiet = false;
  bool showHelp = false;
};

int usage() {
  std::fprintf(stderr, "usage: roccc-verify [options] [kernel.c ...]\n"
                       "       roccc-verify --help for the option list\n");
  return 2;
}

bool parseEngines(const std::string& list, unsigned& mask) {
  mask = 0;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    bool found = false;
    for (int e = 0; e < roccc::kVerifyEngineCount; ++e) {
      if (item == roccc::verifyEngineName(static_cast<roccc::VerifyEngine>(e))) {
        mask |= 1u << e;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "error: unknown engine '%s'\n", item.c_str());
      return false;
    }
  }
  return mask != 0;
}

/// The option list: --help and the docs/CLI.md sync check are generated
/// from it, so every option lives here.
std::vector<roccc::cli::OptionSpec> optionList(Args& a) {
  using roccc::cli::setFlag;
  using roccc::cli::setString;
  return {
      {"--table1", nullptr, "add the nine Table 1 kernels", setFlag(a.table1)},
      {"--corpus", "DIR", "add every .c kernel in DIR (sorted)", setString(a.corpusDir)},
      roccc::sweepAxisFlag(roccc::OptionId::Unroll, a.grid,
                           "comma-separated unroll factors (default \"1\")"),
      {"--seed", "N", "stimulus seed (default 0x0dc52005)",
       [&a](const char* v, std::string&) { return roccc::cli::parseSeed(v, a.verify.seed); }},
      {"--jobs", "N", "compile workers (0 = one per hardware thread)",
       roccc::cli::setInt(a.verify.workers, 0)},
      {"--engines", "LIST", "comma list of engines (default: all five)",
       [&a](const char* v, std::string&) { return parseEngines(v, a.verify.engineMask); }},
      {"--testbench-check", nullptr, "also replay each generated system testbench",
       setFlag(a.verify.checkTestbench)},
      {"--soak", "N", "fault-injection soak rounds (sibling isolation)",
       roccc::cli::setInt(a.soakRounds, 1)},
      {"--json", "FILE", "write the full JSON report", setString(a.jsonPath)},
      {"--quiet", nullptr, "only the summary and any disagreements", setFlag(a.quiet)},
      {"--help", nullptr, "print this option list and exit", setFlag(a.showHelp)},
  };
}

bool collectJobs(Args& a, std::vector<roccc::CompileJob>& jobs) {
  std::vector<roccc::SweepGrid::Kernel>& sources = a.grid.kernels;
  std::string error; // adding all nine Table 1 kernels cannot fail
  if (a.table1) roccc::bench::addTable1Kernels({}, true, a.grid, error);
  if (!a.corpusDir.empty()) {
    namespace fs = std::filesystem;
    if (!fs::is_directory(a.corpusDir)) {
      std::fprintf(stderr, "error: '%s' is not a directory\n", a.corpusDir.c_str());
      return false;
    }
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(a.corpusDir)) {
      if (e.path().extension() == ".c") files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& p : files) {
      std::ifstream in(p);
      std::ostringstream buf;
      buf << in.rdbuf();
      sources.push_back({p.stem().string(), buf.str(), 0});
    }
  }
  for (const std::string& path : a.inputs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back({path, buf.str(), 0});
  }
  if (sources.empty()) {
    std::fprintf(stderr, "error: no kernels (give files, --table1, or --corpus DIR)\n");
    return false;
  }
  // Each kernel at each unroll factor, with its stage-delay default.
  for (roccc::SweepPoint& p : roccc::expandGrid(a.grid)) {
    const int u = p.options.unrollFactor;
    jobs.push_back({u == 1 ? p.kernel : roccc::fmt("%0@u%1", p.kernel, u), std::move(p.source),
                    std::move(p.options)});
  }
  return true;
}

void printVerdicts(const roccc::VerifyReport& report, bool quiet) {
  for (const auto& v : report.verdicts) {
    if (v.outcome != roccc::CompileOutcome::Ok) {
      std::printf("%-28s COMPILE-%s\n", v.kernel.c_str(),
                  roccc::compileOutcomeName(v.outcome));
      continue;
    }
    if (v.agree) {
      if (!quiet) {
        std::printf("%-28s agree (%d engines, %lld vectors, digest %016llx)\n", v.kernel.c_str(),
                    v.enginesRun, static_cast<long long>(v.iterations),
                    static_cast<unsigned long long>(v.outputDigest));
      }
      continue;
    }
    std::printf("%-28s DISAGREE\n", v.kernel.c_str());
    for (const auto& ce : v.disagreements) {
      std::printf("  [%s] %s\n", roccc::verifyEngineName(ce.engine), ce.detail.c_str());
    }
  }
}

/// Fault-injection soak: re-runs the batch with one armed fault point per
/// round (rotating through faultPointRegistry() and the job list) and
/// asserts every *other* job's verdict is identical to the clean run —
/// agreement, output digest, iteration count. A failing job must never
/// poison sibling conformance results.
int runSoak(const std::vector<roccc::CompileJob>& jobs, const roccc::VerifyOptions& opt,
            const roccc::VerifyReport& baseline, int rounds, bool quiet) {
  const auto& registry = roccc::faultPointRegistry();
  int poisonings = 0;
  for (int round = 0; round < rounds; ++round) {
    const auto& fp = registry[static_cast<size_t>(round) % registry.size()];
    const size_t victim = static_cast<size_t>(round) % jobs.size();
    std::vector<roccc::CompileJob> armed = jobs;
    armed[victim].options.injectFaultAt = fp.name;
    const roccc::VerifyReport report = roccc::verifyConformance(armed, opt);
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (i == victim) continue;
      const auto& base = baseline.verdicts[i];
      const auto& got = report.verdicts[i];
      if (base.outcome != got.outcome || base.agree != got.agree ||
          base.outputDigest != got.outputDigest || base.iterations != got.iterations) {
        ++poisonings;
        std::printf("SOAK POISONING round %d (fault '%s' on '%s'): sibling '%s' changed "
                    "(digest %016llx -> %016llx)\n",
                    round, fp.name, jobs[victim].name.c_str(), jobs[i].name.c_str(),
                    static_cast<unsigned long long>(base.outputDigest),
                    static_cast<unsigned long long>(got.outputDigest));
      }
    }
    if (!quiet) {
      std::printf("soak round %d: fault '%s' on '%s' -> %s; siblings clean\n", round, fp.name,
                  jobs[victim].name.c_str(),
                  roccc::compileOutcomeName(report.verdicts[victim].outcome));
    }
  }
  std::printf("soak: %d rounds, %d poisonings\n", rounds, poisonings);
  return poisonings == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  const auto options = optionList(a);
  std::string error;
  if (!roccc::cli::parseArgs(argc, argv, options, a.inputs, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  if (a.showHelp) {
    roccc::cli::printHelp(
        "usage: roccc-verify [options] [kernel.c ...]\n\n"
        "Differential conformance: every kernel is compiled and executed by up to five\n"
        "independent engines (interp, mir-exec, dp-eval, netlist-ref, fastsim) on the\n"
        "same deterministic stimulus; any disagreement is a minimized counterexample.\n\n"
        "options:\n",
        options, "\nexit codes: 0 agree, 1 disagreement, 2 usage, 3 compile failure\n", 19);
    return 0;
  }
  std::vector<roccc::CompileJob> jobs;
  if (!collectJobs(a, jobs)) return 2;

  const roccc::VerifyReport report = roccc::verifyConformance(jobs, a.verify);
  printVerdicts(report, a.quiet);
  std::printf("roccc-verify: %s\n", report.summary().c_str());

  if (!a.jsonPath.empty()) {
    std::ofstream out(a.jsonPath);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", a.jsonPath.c_str());
      return 2;
    }
    out << report.toJson();
    if (!a.quiet) std::printf("wrote %s\n", a.jsonPath.c_str());
  }

  int exitCode = 0;
  if (!report.allAgree()) exitCode = 1;
  else if (report.compileFailures() > 0) exitCode = 3;

  if (a.soakRounds > 0 && exitCode == 0) {
    const int soak = runSoak(jobs, a.verify, report, a.soakRounds, a.quiet);
    if (soak != 0) exitCode = soak;
  }
  return exitCode;
}
