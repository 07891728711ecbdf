// roccc-cc — the command-line driver.
//
//   roccc-cc [options] kernel.c [kernel2.c ...]
//
// Compiles the kernel to RTL VHDL, writes <kernel>.vhd (and optionally a
// self-checking testbench), and prints the compilation report: data-path
// structure, synthesis estimate (area / clock / power), and — when inputs
// are provided — a hardware/software cosimulation verdict.
//
// With more than one input file (listed on the command line and/or via
// --manifest), roccc-cc switches to batch mode: the files are compiled
// concurrently on a --jobs N worker pool (roccc::CompileService), each
// writing its own <input>.vhd. Batch output is deterministic — the VHDL
// bytes, pass counters and diagnostics per file are identical for any
// worker count.
//
// Exit codes classify the outcome: 0 ok, 1 frontend error (bad input),
// 2 usage, 3 timeout, 4 resource budget exceeded, 5 internal error. In
// batch mode the summary line reports per-outcome counts and the exit code
// is the first failing job's.
//
// Every --opt VALUE option also accepts the --opt=VALUE spelling. The
// compile flags come from the option table (roccc/options.hpp), shared with
// roccc-client and the daemon protocol. docs/CLI.md is the full flag
// reference; a CI test keeps it in sync with the --help output generated
// from the option list below.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dp/annotate.hpp"
#include "roccc/cache.hpp"
#include "roccc/compiler.hpp"
#include "roccc/driver.hpp"
#include "roccc/options.hpp"
#include "roccc/verify.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"
#include "synth/estimate.hpp"
#include "vhdl/check.hpp"
#include "vhdl/testbench.hpp"
#include "vhdl/verilog.hpp"

namespace {

struct Args {
  std::vector<std::string> inputs;
  std::string manifestPath;
  int jobs = 1;
  std::string output;
  roccc::CompileOptions options;
  bool testbench = false;
  uint64_t tbSeed = 0;
  bool tbSeedSet = false;
  bool cosim = false;
  roccc::rtl::SimEngine engine = roccc::rtl::SimEngine::Fast;
  std::string vcdPath;
  std::string verilogPath;
  std::string jsonPath;
  std::string statsJsonPath;
  bool dumpDatapath = false;
  bool dumpMir = false;
  bool timePasses = false;
  bool quiet = false;
  bool showHelp = false;
  bool cacheEnabled = false;
  std::string cacheDir;
  int64_t cacheBytes = 0; ///< 0 = CacheConfig default
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] kernel.c [kernel2.c ...]\n"
               "       %s --help for the option list (docs/CLI.md has the full reference)\n",
               argv0, argv0);
  return 2;
}

/// The option list: --help and the docs/CLI.md sync check are generated
/// from it, so every option lives here.
std::vector<roccc::cli::OptionSpec> optionList(Args& a) {
  using roccc::OptionId;
  using roccc::cli::setFlag;
  using roccc::cli::setString;
  const auto compile = [&a](OptionId id) { return roccc::compileFlag(id, a.options); };
  return {
      {"-o", "FILE", "output VHDL path (default: <input>.vhd)", setString(a.output)},
      compile(OptionId::Kernel),
      compile(OptionId::Unroll),
      compile(OptionId::TargetNs),
      compile(OptionId::TimingModel),
      compile(OptionId::MultStyle),
      compile(OptionId::Pipeline),
      compile(OptionId::WidthMode),
      compile(OptionId::AutoUnrollBudget),
      compile(OptionId::FullUnroll),
      compile(OptionId::LutConvert),
      compile(OptionId::Optimize),
      {"--testbench", nullptr, "also write <output>_tb.vhd (system-level, interpreter-derived vectors)",
       setFlag(a.testbench)},
      {"--tb-seed", "N", "with --testbench: append 16 seeded random vectors (seed in header)",
       [&a](const char* v, std::string&) {
         a.tbSeedSet = true;
         return roccc::cli::parseSeed(v, a.tbSeed);
       }},
      {"--cosim", nullptr, "run the RTL system and verify against the interpreter",
       setFlag(a.cosim)},
      {"--sim-engine", "E", "netlist engine for --cosim and the --testbench check: 'fast' or 'ref'",
       [&a](const char* v, std::string&) {
         const std::string e = v;
         if (e != "fast" && e != "ref" && e != "reference") return false;
         a.engine = e == "fast" ? roccc::rtl::SimEngine::Fast : roccc::rtl::SimEngine::Reference;
         return true;
       }},
      {"--vcd", "FILE", "with --cosim: dump a VCD waveform of the run",
       [&a](const char* v, std::string&) {
         a.vcdPath = v;
         a.cosim = true;
         return true;
       }},
      roccc::compileFlag(OptionId::Verilog, a.options, nullptr, &a.verilogPath),
      {"--json", "FILE", "export the data-path graph as JSON", setString(a.jsonPath)},
      {"--stats-json", "FILE", "write pass statistics (single) or batch+cache stats as JSON",
       setString(a.statsJsonPath)},
      {"--dump-datapath", nullptr, "print the data-path op listing", setFlag(a.dumpDatapath)},
      {"--dump-mir", nullptr, "print the back-end IR", setFlag(a.dumpMir)},
      {"--time-passes", nullptr, "print the per-pass timing/counter table", setFlag(a.timePasses)},
      compile(OptionId::VerifyEach),
      {"--print-after-all", nullptr, "dump the IR after every pass (stderr)",
       setFlag(a.options.pipeline.printAfterAll)},
      {"--print-after", "P", "dump the IR after pass P (repeatable)",
       [&a](const char* v, std::string&) {
         a.options.pipeline.printAfter.emplace_back(v);
         return true;
       }},
      {"--jobs", "N", "batch mode: N worker threads (0 = one per hardware thread)",
       roccc::cli::setInt(a.jobs, 0)},
      {"--manifest", "FILE", "read additional input paths from FILE (one per line)",
       setString(a.manifestPath)},
      {"--cache", nullptr, "batch mode: enable the content-addressed compile cache",
       setFlag(a.cacheEnabled)},
      {"--cache-dir", "DIR", "persistent on-disk cache tier in DIR (implies --cache)",
       [&a](const char* v, std::string&) {
         a.cacheEnabled = true;
         a.cacheDir = v;
         return true;
       }},
      {"--cache-bytes", "N", "in-memory cache byte budget, default 256 MiB (implies --cache)",
       [&a](const char* v, std::string&) {
         a.cacheEnabled = true;
         return roccc::cli::parseInt(v, a.cacheBytes, 1);
       }},
      {"--quiet", nullptr, "only errors (suppresses reports and pass timing)", setFlag(a.quiet)},
      compile(OptionId::TimeoutMs),
      compile(OptionId::MaxIrNodes),
      compile(OptionId::MaxUnrollProduct),
      compile(OptionId::MaxDepth),
      compile(OptionId::InjectFault),
      {"--help", nullptr, "print this option list and exit", setFlag(a.showHelp)},
  };
}

/// Appends the manifest's input paths (one per line, blank lines and
/// #-comment lines skipped) to `inputs`.
bool readManifest(const std::string& path, std::vector<std::string>& inputs) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open manifest '%s'\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const size_t end = line.find_last_not_of(" \t\r");
    line = line.substr(begin, end - begin + 1);
    if (line.empty() || line[0] == '#') continue;
    inputs.push_back(line);
  }
  return true;
}

/// Outcome-classified exit code: scripts and the CI fault sweep key on
/// these. 2 is reserved for usage errors.
int exitCodeFor(roccc::CompileOutcome outcome) {
  switch (outcome) {
    case roccc::CompileOutcome::Ok: return 0;
    case roccc::CompileOutcome::FrontendError: return 1;
    case roccc::CompileOutcome::Timeout: return 3;
    case roccc::CompileOutcome::ResourceExceeded: return 4;
    case roccc::CompileOutcome::InternalError: return 5;
  }
  return 5;
}

/// <input>.c -> <input>.vhd (extension replaced, or appended when none).
std::string defaultOutputPath(const std::string& input) {
  std::string out = input;
  const size_t dot = out.rfind('.');
  const size_t slash = out.find_last_of('/');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) out.resize(dot);
  return out + ".vhd";
}

/// Batch mode: compile every input on a CompileService pool, write one
/// .vhd per input, print per-file status plus the aggregate throughput.
int runBatch(const Args& a) {
  std::vector<roccc::CompileJob> jobs;
  for (const std::string& path : a.inputs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    jobs.push_back({path, buf.str(), a.options});
  }

  roccc::CompileService service(a.jobs);
  std::shared_ptr<roccc::CompileCache> cache;
  if (a.cacheEnabled) {
    roccc::CacheConfig cfg;
    if (a.cacheBytes > 0) cfg.maxBytes = a.cacheBytes;
    cfg.diskDir = a.cacheDir;
    cache = std::make_shared<roccc::CompileCache>(cfg);
    service.setCache(cache);
    if (!a.cacheDir.empty() && !cache->diskEnabled()) {
      std::fprintf(stderr, "error: cannot use cache directory '%s'\n", a.cacheDir.c_str());
      return 1;
    }
  }
  const roccc::BatchResult batch = service.compileBatch(jobs);

  int failures = 0;
  int firstFailureExit = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const roccc::CompileResult& r = batch.results[i];
    if (!r.ok) {
      ++failures;
      if (firstFailureExit == 0) firstFailureExit = exitCodeFor(r.outcome);
      std::fprintf(stderr, "%s: compile failed (%s%s%s)\n%s", jobs[i].name.c_str(),
                   roccc::compileOutcomeName(r.outcome), r.failedPass.empty() ? "" : " in pass ",
                   r.failedPass.c_str(), r.diags.dump().c_str());
      continue;
    }
    const auto chk = roccc::vhdl::checkDesign(r.vhdl);
    if (!chk.ok) {
      ++failures;
      std::fprintf(stderr, "%s: internal: emitted VHDL failed validation\n", jobs[i].name.c_str());
      continue;
    }
    const std::string outPath = defaultOutputPath(jobs[i].name);
    std::ofstream out(outPath);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", outPath.c_str());
      return 1;
    }
    out << r.vhdl;
    if (!a.quiet) {
      std::printf("%-32s -> %s (%d entities, %zu bytes)\n", jobs[i].name.c_str(), outPath.c_str(),
                  chk.entityCount, r.vhdl.size());
    }
  }
  if (!a.quiet) {
    std::printf("batch: %d/%zu kernels ok on %d worker(s), %.1f ms total, %.1f kernels/s\n",
                batch.succeeded(), jobs.size(), batch.workers, batch.wallMs,
                batch.kernelsPerSecond());
    std::printf("batch outcomes: %s\n", batch.outcomeSummary().c_str());
    if (cache) {
      const roccc::CacheStats cs = cache->stats();
      std::printf("batch cache: %d hits, %d misses (%lld coalesced, %lld evicted, "
                  "%lld disk loads, %lld disk stores)\n",
                  batch.cacheHits, batch.cacheMisses, static_cast<long long>(cs.coalesced),
                  static_cast<long long>(cs.evictions), static_cast<long long>(cs.diskHits),
                  static_cast<long long>(cs.diskStores));
    }
  }
  if (!a.statsJsonPath.empty()) {
    std::ofstream sout(a.statsJsonPath);
    if (!sout) {
      std::fprintf(stderr, "error: cannot write '%s'\n", a.statsJsonPath.c_str());
      return 1;
    }
    using roccc::json::Value;
    Value summary = Value::object({{"jobs", jobs.size()}, {"ok", batch.succeeded()},
                                   {"workers", batch.workers}, {"wallMs", batch.wallMs},
                                   {"cacheHits", batch.cacheHits},
                                   {"cacheMisses", batch.cacheMisses}});
    Value doc = Value::object({{"batch", std::move(summary)}});
    if (cache) doc.set("cache", cache->stats().toJson());
    sout << doc.pretty();
    if (!a.quiet) std::printf("wrote %s\n", a.statsJsonPath.c_str());
  }
  return firstFailureExit;
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  const auto options = optionList(a);
  std::string error;
  if (!roccc::cli::parseArgs(argc, argv, options, a.inputs, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }
  if (a.showHelp) {
    roccc::cli::printHelp(
        roccc::fmt("usage: %0 [options] kernel.c [kernel2.c ...]\n\n"
                   "Compiles C kernels to RTL VHDL; with multiple inputs, compiles them as a\n"
                   "concurrent batch. docs/CLI.md is the full reference.\n\noptions:\n",
                   argv[0]),
        options,
        "\nexit codes: 0 ok, 1 frontend error, 2 usage, 3 timeout,\n"
        "            4 resource budget exceeded, 5 internal error\n");
    return 0;
  }
  if (!a.manifestPath.empty() && !readManifest(a.manifestPath, a.inputs)) return 1;
  if (a.inputs.empty()) return usage(argv[0]);
  // ROCCC_FAULT_INJECT: the environment spelling of --inject-fault, for
  // harnesses that drive roccc-cc without editing its command line. The
  // explicit flag wins.
  if (a.options.injectFaultAt.empty()) {
    if (const char* env = std::getenv("ROCCC_FAULT_INJECT")) a.options.injectFaultAt = env;
  }
  // The timing model's text was validated when its flag was parsed.
  roccc::synth::TimingModel modelStorage;
  const roccc::synth::TimingModel& timingModel =
      *roccc::synth::TimingModel::resolve(a.options.timingModelSpec, modelStorage, error);
  // Every report prices the design as compiled, as roccc-explore does.
  const roccc::synth::EstimateOptions estimateOptions =
      roccc::estimateOptionsFor(a.options, timingModel);

  if (a.inputs.size() > 1) {
    // Batch mode writes one <input>.vhd per input and nothing else, so a
    // flag naming one output or one report is a usage error, not ignored.
    const std::pair<bool, const char*> singleInputOnly[] = {
        {!a.output.empty(), "-o"},
        {!a.verilogPath.empty(), "--verilog"},
        {!a.jsonPath.empty(), "--json"},
        {a.testbench, "--testbench"},
        {!a.vcdPath.empty(), "--vcd"}, // before --cosim, which --vcd implies
        {a.cosim, "--cosim"},
        {a.dumpDatapath, "--dump-datapath"},
        {a.dumpMir, "--dump-mir"},
    };
    for (const auto& [given, flag] : singleInputOnly) {
      if (!given) continue;
      std::fprintf(stderr, "error: %s is incompatible with multiple inputs "
                           "(each writes its own <input>.vhd)\n", flag);
      return 2;
    }
    return runBatch(a);
  }

  const std::string& input = a.inputs.front();
  std::ifstream in(input);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", input.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string source = buf.str();

  roccc::Compiler compiler(a.options);
  const roccc::CompileResult r = compiler.compileSource(source);

  // Requested IR snapshots, also for failed compiles (the snapshot before
  // the failing pass is often the point).
  for (const auto& p : r.passLog) {
    if (p.snapshot.empty()) continue;
    std::fprintf(stderr, "*** IR after pass '%s' (%s) ***\n%s\n", p.name.c_str(),
                 roccc::passLayerName(p.layer), p.snapshot.c_str());
  }
  if (!a.statsJsonPath.empty()) {
    std::ofstream sout(a.statsJsonPath);
    if (!sout) {
      std::fprintf(stderr, "error: cannot write '%s'\n", a.statsJsonPath.c_str());
      return 1;
    }
    roccc::json::Value timing;
    if (r.ok) {
      const auto est = roccc::synth::estimate(r.module, estimateOptions);
      timing = roccc::timingToJson(r, a.options.dpOptions.targetStageDelayNs, est);
    }
    sout << roccc::statsToJson(r.passLog, std::move(timing)).pretty();
    if (!a.quiet) std::printf("wrote %s\n", a.statsJsonPath.c_str());
  }
  if (!r.ok) {
    if (r.outcome != roccc::CompileOutcome::FrontendError) {
      std::fprintf(stderr, "%s: %s%s%s\n", input.c_str(), roccc::compileOutcomeName(r.outcome),
                   r.failedPass.empty() ? "" : " in pass ", r.failedPass.c_str());
    }
    std::fprintf(stderr, "%s", r.diags.dump().c_str());
    return exitCodeFor(r.outcome);
  }
  for (const auto& d : r.diags.all()) {
    if (d.severity == roccc::Severity::Warning) {
      std::fprintf(stderr, "%s\n", d.str().c_str());
    }
  }
  if (a.timePasses && !a.quiet) std::printf("%s", roccc::statsToTable(r.passLog).c_str());

  if (a.output.empty()) a.output = defaultOutputPath(input);
  {
    std::ofstream out(a.output);
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", a.output.c_str());
      return 1;
    }
    out << r.vhdl;
  }
  const auto chk = roccc::vhdl::checkDesign(r.vhdl);
  if (!chk.ok) {
    std::fprintf(stderr, "internal: emitted VHDL failed validation:\n");
    for (const auto& p : chk.problems) std::fprintf(stderr, "  %s\n", p.c_str());
    return 1;
  }

  if (!a.verilogPath.empty()) {
    const auto vchk = roccc::verilog::checkDesign(r.verilog);
    if (!vchk.ok) {
      std::fprintf(stderr, "internal: emitted Verilog failed validation\n");
      return 1;
    }
    std::ofstream vout(a.verilogPath);
    vout << r.verilog;
    if (!a.quiet) std::printf("wrote %s (%d modules)\n", a.verilogPath.c_str(), vchk.moduleCount);
  }
  if (!a.jsonPath.empty()) {
    std::ofstream jout(a.jsonPath);
    jout << roccc::dp::exportJson(r.datapath).pretty();
    if (!a.quiet) std::printf("wrote %s\n", a.jsonPath.c_str());
  }

  if (a.testbench) {
    // System-level vectors: the full iteration space through the AST
    // interpreter (deterministic — the same kernel always gets the same
    // testbench), plus optional --tb-seed extras. Before writing, the
    // vector set is replayed on the selected --sim-engine netlist engine,
    // so the emitted file is known to self-report "TESTBENCH PASSED".
    const auto io = roccc::deterministicStimulus(r.kernel, roccc::VerifyOptions{}.seed);
    const int extras = a.tbSeedSet ? 16 : 0;
    roccc::vhdl::TestbenchInfo info;
    const auto vectors =
        roccc::vhdl::makeSystemVectors(r.kernel, r.datapath, io, extras, a.tbSeed, &info);
    const auto sim = roccc::vhdl::simulateTestbench(r.datapath, r.module, vectors, a.engine);
    if (!sim.passed) {
      std::fprintf(stderr, "internal: testbench self-check failed: %s\n",
                   sim.firstFailure.c_str());
      return 5;
    }
    std::string tbPath = a.output;
    const size_t dot = tbPath.rfind('.');
    if (dot != std::string::npos) tbPath.resize(dot);
    tbPath += "_tb.vhd";
    std::ofstream tb(tbPath);
    tb << roccc::vhdl::emitSystemTestbench(r.datapath, r.kernel, vectors, info);
    if (!a.quiet) {
      std::printf("wrote %s (%lld interpreter-derived + %d seeded vectors, checked on the "
                  "%s engine)\n",
                  tbPath.c_str(), static_cast<long long>(info.traceVectors), info.extraVectors,
                  roccc::rtl::simEngineName(a.engine));
    }
  }

  if (!a.quiet) {
    std::printf("wrote %s (%d entities)\n", a.output.c_str(), chk.entityCount);
    std::printf("kernel '%s': %zu-deep loop nest, %zu input stream(s), %zu output stream(s), "
                "%zu feedback register(s)\n",
                r.kernel.kernelName.c_str(), r.kernel.loops.size(), r.kernel.inputs.size(),
                r.kernel.outputs.size(), r.kernel.feedbacks.size());
    std::printf("data path: %d nodes (%d soft + %d hard), %d pipeline stages, %lld bits narrowed\n",
                static_cast<int>(r.datapath.nodes.size()), r.datapath.softNodeCount,
                r.datapath.hardNodeCount, r.datapath.stageCount,
                static_cast<long long>(r.datapath.narrowedBits));
    const auto& rt = r.datapath.timing;
    std::printf("stage timing: %d stages @ %.2f ns target (worst stage %.2f ns, slack %+.2f ns, "
                "modeled fmax %.1f MHz, %s)\n",
                r.datapath.stageCount, rt.targetNs, rt.worstStageNs, rt.slackNs, rt.fmaxMHz,
                rt.feasible ? "feasible" : "infeasible target");
    const auto rep = roccc::synth::estimate(r.module, estimateOptions);
    std::printf("synthesis estimate (xc2v2000-5): %s\n", rep.summary().c_str());
  }
  if (a.dumpDatapath) std::printf("\n%s", r.datapath.dump().c_str());
  if (a.dumpMir) std::printf("\n%s", r.mir.dump().c_str());

  if (a.cosim) {
    // The --testbench stimulus through verifyKernel: the AST interpreter on
    // the original source is the golden model, checked by the streaming
    // model and the Fig 2 system on the --sim-engine netlist engine.
    roccc::VerifyOptions vo;
    vo.engineMask = 1u << static_cast<int>(a.engine == roccc::rtl::SimEngine::Reference
                                               ? roccc::VerifyEngine::NetlistRef
                                               : roccc::VerifyEngine::FastSim);
    const auto io = roccc::deterministicStimulus(r.kernel, vo.seed);
    const roccc::KernelVerdict v = roccc::verifyKernel(r.kernel.kernelName, source, r, io, vo);
    if (!v.agree) {
      if (!v.compileError.empty()) {
        std::fprintf(stderr, "COSIMULATION MISMATCH: %s\n", v.compileError.c_str());
      }
      for (const auto& ce : v.disagreements) {
        std::fprintf(stderr, "COSIMULATION MISMATCH: %s\n", ce.str().c_str());
      }
      return 1;
    }
    if (!a.quiet) {
      std::printf("cosimulation: MATCH (%lld cycles, %lld iterations, %lld BRAM reads, "
                  "%s engine)\n",
                  static_cast<long long>(v.stats.cycles),
                  static_cast<long long>(v.stats.iterations),
                  static_cast<long long>(v.stats.bramReads),
                  roccc::rtl::simEngineName(a.engine));
    }
    if (!a.vcdPath.empty()) {
      roccc::rtl::SystemOptions so;
      so.engine = a.engine;
      so.recordVcd = true;
      roccc::rtl::System sys(r.kernel, r.datapath, r.module, so);
      sys.run(io);
      std::ofstream vcdOut(a.vcdPath);
      vcdOut << sys.vcd();
      if (!a.quiet) std::printf("wrote %s\n", a.vcdPath.c_str());
    }
  }
  return 0;
}
