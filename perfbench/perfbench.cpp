// perfbench — the repository benchmark's program (perfbench/README.md).
//
// Three seeded closed-loop workloads run in-process against the public
// library API, over one job set: the nine Table 1 kernels (with their
// per-row stage-delay targets) and every tests/corpus kernel, each at
// unroll 1, 2 and 4.
//
//   compile-cold  one client, a 1-worker CompileService and a fresh
//                 CompileCache per pass over the job set; each job is the
//                 roccc-cc --cache body (compileBatch with one job), then
//                 vhdl::checkDesign, then synth::estimate.
//   verify-sim    the job set is compiled in set-up; each operation is
//                 verifyKernel with all five engines and the testbench.
//   service-warm  an in-process ServiceDaemon whose cache is warmed in
//                 set-up; one ServiceClient connection sends compile
//                 requests drawn by seed from the job set.
//
// The seed sets job order, request draws and stimulus; the library only
// sees the generated inputs. Every output is checked against a reference
// compile made in set-up (and Table 1 unroll-1 VHDL against
// tests/golden/); a mismatch is a failed operation and a non-zero exit.
//
// Times are scaled to a nominal machine by a speed probe the benchmark
// runs between measured windows (SpeedProbe below): on a shared machine a
// core's speed drifts by tens of percent over minutes, which would
// otherwise swamp every regression bound.
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs half the time
// untraced and half traced, and reports per-layer self times plus the
// tracing overhead. Both halves make the same library calls; the traced
// half adds spans around them (trace.hpp), the library's own per-pass
// times, and after each operation extra calls that time the layers one
// library call hides (the cache, the verify engines). The library itself
// is not instrumented.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <memory_resource>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "kernels.hpp"
#include "roccc/cache.hpp"
#include "roccc/compiler.hpp"
#include "roccc/driver.hpp"
#include "roccc/service_net.hpp"
#include "roccc/verify.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "synth/estimate.hpp"
#include "synth/timing.hpp"
#include "trace.hpp"
#include "vhdl/check.hpp"
#include "vhdl/testbench.hpp"

namespace fs = std::filesystem;
using namespace roccc;
using perfbench::nowNs;
using perfbench::Tracer;
using Scope = perfbench::Tracer::Scope;

namespace {

constexpr int kSetupReps = 7;          ///< set-up runs per process; setup_s is their median
constexpr size_t kKeepSpans = 200000;  ///< spans kept for the Chrome export
constexpr int kUnrolls[] = {1, 2, 4};
/// Probe time of the nominal machine every time metric is scaled to.
constexpr double kNominalProbeMs = 7.0;

/// The 17 passes of Compiler::buildPipeline(), in order: the per-pass
/// metric names every traced run reports.
constexpr const char* kPassNames[] = {
    "parse",          "lut-convert",    "inline",         "const-fold",
    "fuse-loops",     "unroll-inner-full", "unroll",      "extract-kernel",
    "lower-mir",      "canonicalize-effects", "ssa-build", "mir-optimize",
    "build-datapath", "retime",         "build-rtl",      "emit-vhdl",
    "emit-verilog"};

// ---------------------------------------------------------------------------
// Arguments, checks, small helpers

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  fs::path outDir = ".";
};

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveWorkload = false, haveSeed = false, haveSeconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      haveWorkload = a.workload == "compile-cold" || a.workload == "verify-sim" ||
                     a.workload == "service-warm";
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      haveSeed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      haveSeconds = end != v && *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
    } else if (flag == "--out-dir") {
      a.outDir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && haveWorkload && haveSeed && haveSeconds;
}

/// Counts operations and failed operations; prints the first failures.
struct Checker {
  int64_t attempted = 0;
  int64_t failed = 0;

  /// One checked operation: `problem` empty means it passed.
  void op(const std::string& what, const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "perfbench: FAIL %s: %s\n", what.c_str(), problem.c_str());
  }
};

double msSince(int64_t startNs) { return static_cast<double>(nowNs() - startNs) / 1e6; }

/// Nearest-rank percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// A seeded permutation of [0, n) (Fisher-Yates over SplitMix64).
std::vector<size_t> shuffled(size_t n, SplitMix64& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.next() % i]);
  return order;
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Interned strings: span names must outlive the tracer.
const char* intern(const std::string& s) {
  static std::set<std::string> pool;
  return pool.insert(s).first->c_str();
}

const synth::EstimateOptions& estimateOptions() {
  static const synth::EstimateOptions opt =
      synth::EstimateOptions::forModel(synth::TimingModel::virtex2());
  return opt;
}

/// Machine-speed probe: a fixed workload in the benchmark's own code with
/// the mix a compile runs. One part builds strings, fills a hash map,
/// allocates small nodes and sorts; its allocations come from a private
/// arena made once with the probe, never from the process heap. The other
/// part maps fresh pages from the kernel and touches each, as the large
/// buffers of an emitted design do. So a library change that grows or
/// fragments the heap does not reach the probe. It runs between measured
/// windows, never inside one, on the measuring thread: the same core's
/// speed is what it has to track (a probe on a thread of its own tracked
/// the compile loop poorly). Times multiplied by kNominalProbeMs / (probe
/// time) read as on a machine where the probe takes kNominalProbeMs.
class SpeedProbe {
 public:
  SpeedProbe() : arena_(kArenaBytes) {}

  /// Runs the probe once and returns its time.
  double sample() {
    const int64_t t0 = nowNs();
    {
      std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size(),
                                                std::pmr::null_memory_resource());
      std::pmr::unordered_map<std::pmr::string, int64_t> counts(&arena);
      std::pmr::vector<std::pmr::string*> nodes(&arena);
      std::pmr::vector<uint64_t> keys(&arena);
      std::pmr::string text(&arena);
      std::pmr::polymorphic_allocator<std::pmr::string> alloc(&arena);
      uint64_t x = 0x9e3779b97f4a7c15ULL;
      char buf[24] = {'n'};
      for (int i = 0; i < kKeys; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const char* end = std::to_chars(buf + 1, buf + sizeof buf, x % 5000).ptr;
        std::pmr::string key(buf, static_cast<size_t>(end - buf), &arena);
        counts[key] += static_cast<int64_t>(x & 0xff);
        text += key;
        text += ';';
        std::pmr::string* node = alloc.allocate(1);
        alloc.construct(node, std::move(key));
        nodes.push_back(node);
        keys.push_back(x);
      }
      std::sort(keys.begin(), keys.end());
      sink_ += keys[keys.size() / 2] + counts.size() + text.size() + nodes.size();
    } // the arena is released here; nothing in it needs destroying
    void* pages = mmap(nullptr, kPageBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages != MAP_FAILED) {
      char* c = static_cast<char*>(pages);
      for (size_t k = 0; k < kPageBytes; k += 4096) c[k] = static_cast<char>(k >> 12);
      sink_ += static_cast<unsigned char>(c[kPageBytes / 2]);
      munmap(pages, kPageBytes);
    }
    samples_.push_back(msSince(t0));
    return samples_.back();
  }
  /// Forgets the samples so far (set-up is scaled by its own samples).
  void reset() { samples_.clear(); }
  double medianMs() const { return median(samples_); }
  /// Multiplier from measured to nominal-machine time.
  double timeScale() const { return kNominalProbeMs / medianMs(); }

 private:
  static constexpr int kKeys = 20000;
  static constexpr size_t kArenaBytes = 8u << 20; ///< one sample takes under 3 MB of it
  static constexpr size_t kPageBytes = 8u << 20;  ///< 2048 fresh pages per sample
  std::vector<std::byte> arena_;
  std::vector<double> samples_; ///< probe times, ms
  uint64_t sink_ = 0;           ///< keeps the probe's work observable
};

// ---------------------------------------------------------------------------
// The job set and the set-up reference compile

struct BenchJob {
  std::string id; ///< "<kernel>@u<unroll>"
  std::string kernel;
  bool table1Unroll1 = false; ///< byte-compared against tests/golden/<kernel>.vhd
  CompileJob job;
  json::Value request; ///< the service `compile` request for the same compile
};

std::vector<BenchJob> makeJobSet(const fs::path& root) {
  std::vector<BenchJob> jobs;
  const auto add = [&](const std::string& kernel, const std::string& source, double targetNs,
                       bool table1) {
    for (const int u : kUnrolls) {
      BenchJob j;
      j.kernel = kernel;
      j.id = kernel + "@u" + std::to_string(u);
      j.table1Unroll1 = table1 && u == 1;
      j.job.name = j.id;
      j.job.source = source;
      j.job.options.unrollFactor = u;
      json::Value options = json::Value::object();
      options.set("unroll", json::Value::number(static_cast<int64_t>(u)));
      if (targetNs > 0) {
        j.job.options.dpOptions.targetStageDelayNs = targetNs;
        options.set("targetNs", json::Value::number(targetNs));
      }
      j.request = makeCompileRequest(j.id, source, std::move(options));
      jobs.push_back(std::move(j));
    }
  };
  for (const auto& k : bench::kTable1Kernels) add(k.name, k.source, k.targetStageDelayNs, true);
  std::vector<fs::path> corpus;
  for (const auto& e : fs::directory_iterator(root / "tests" / "corpus")) {
    if (e.path().extension() == ".c") corpus.push_back(e.path());
  }
  std::sort(corpus.begin(), corpus.end());
  for (const auto& p : corpus) add(p.stem().string(), readFile(p), 0, false);
  return jobs;
}

/// The set-up compile every check compares against, plus the design
/// metrics (exact counts on the generated hardware).
struct Reference {
  std::vector<CompileResult> results; ///< job order, IR included
  std::vector<std::string> sha;       ///< SHA-256 of each job's VHDL
  std::vector<int64_t> slices;
  std::vector<double> criticalNs;
  std::vector<int64_t> cycles; ///< rtl::measureSystem cycles on the seeded stimulus
  double slicesGeomean = 0;
  double fmaxGeomean = 0;
  int64_t cyclesTotal = 0;
  double meanCells = 0;
  double meanVhdlBytes = 0;
  double meanVerilogBytes = 0;
};

Reference buildReference(const std::vector<BenchJob>& jobs, const fs::path& root,
                         uint64_t stimulusSeed, Checker& check) {
  std::vector<CompileJob> batch;
  for (const auto& j : jobs) batch.push_back(j.job);
  Reference ref;
  ref.results = CompileService(1).compileBatch(batch).results;
  double logSlices = 0, logFmax = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const CompileResult& r = ref.results[i];
    std::string problem;
    if (!r.ok) {
      problem = std::string("compile outcome ") + compileOutcomeName(r.outcome);
    } else if (!vhdl::checkDesign(r.vhdl).ok) {
      problem = "emitted VHDL failed vhdl::checkDesign";
    } else if (jobs[i].table1Unroll1 &&
               readFile(root / "tests" / "golden" / (jobs[i].kernel + ".vhd")) != r.vhdl) {
      problem = "VHDL differs from tests/golden/" + jobs[i].kernel + ".vhd";
    }
    ref.sha.push_back(sha256Hex(r.vhdl));
    int64_t slices = 1, cycles = 0;
    double criticalNs = 1;
    if (r.ok) {
      const synth::Report est = synth::estimate(r.module, estimateOptions());
      slices = std::max<int64_t>(1, est.slices);
      criticalNs = est.criticalPathNs;
      try {
        const interp::KernelIO io = deterministicStimulus(r.kernel, stimulusSeed);
        cycles = rtl::measureSystem(r.kernel, r.datapath, r.module, io).cycles;
      } catch (const std::exception& e) {
        if (problem.empty()) problem = std::string("measureSystem: ") + e.what();
      }
    }
    ref.slices.push_back(slices);
    ref.criticalNs.push_back(criticalNs);
    ref.cycles.push_back(cycles);
    ref.cyclesTotal += cycles;
    logSlices += std::log(static_cast<double>(slices));
    logFmax += std::log(1000.0 / criticalNs);
    ref.meanCells += static_cast<double>(r.module.cells.size());
    ref.meanVhdlBytes += static_cast<double>(r.vhdl.size());
    ref.meanVerilogBytes += static_cast<double>(r.verilog.size());
    check.op("setup " + jobs[i].id, problem);
  }
  const double n = static_cast<double>(jobs.size());
  ref.slicesGeomean = std::exp(logSlices / n);
  ref.fmaxGeomean = std::exp(logFmax / n);
  ref.meanCells /= n;
  ref.meanVhdlBytes /= n;
  ref.meanVerilogBytes /= n;
  return ref;
}

/// Per-job VHDL digests must match across runs of one build: the first run
/// records them in <out-dir>/digests.txt (run.py drops the file whenever
/// it rebuilds the binary), later runs compare.
void checkDigestsAcrossRuns(const std::vector<BenchJob>& jobs, const Reference& ref,
                            const fs::path& outDir, Checker& check) {
  const fs::path path = outDir / "digests.txt";
  std::ostringstream mine;
  for (size_t i = 0; i < jobs.size(); ++i) mine << jobs[i].id << ' ' << ref.sha[i] << '\n';
  if (fs::exists(path)) {
    check.op("cross-run digests", readFile(path) == mine.str()
                                      ? ""
                                      : "VHDL digests differ from an earlier run of this build");
    return;
  }
  const fs::path tmp = outDir / ("digests.txt." + std::to_string(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary);
    out << mine.str();
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
}

// ---------------------------------------------------------------------------
// Checks shared by the untraced and traced loops

std::string checkCompiled(const CompileResult& r, const vhdl::CheckResult& chk,
                          const synth::Report& est, const Reference& ref, size_t i) {
  if (!r.ok) return std::string("compile outcome ") + compileOutcomeName(r.outcome);
  if (!chk.ok) return "emitted VHDL failed vhdl::checkDesign";
  if (sha256Hex(r.vhdl) != ref.sha[i]) return "VHDL SHA-256 differs from the set-up compile";
  if (std::max<int64_t>(1, est.slices) != ref.slices[i] || est.criticalPathNs != ref.criticalNs[i]) {
    return "synth::estimate differs from the set-up compile";
  }
  return "";
}

std::string checkResponse(const json::Value& resp, const Reference& ref, size_t i, bool warm) {
  const json::Value* status = resp.find("status");
  if (!status || !status->isString() || status->asString() != "ok") {
    const json::Value* err = resp.find("error");
    const json::Value* msg = err ? err->find("message") : nullptr;
    return "response status not ok" + (msg && msg->isString() ? ": " + msg->asString() : "");
  }
  const json::Value* vhdl = resp.find("vhdl");
  const json::Value* sha = resp.find("sha256");
  if (!vhdl || !vhdl->isString() || vhdl->asString() != ref.results[i].vhdl) {
    return "response VHDL differs from the compile-cold bytes";
  }
  if (!sha || !sha->isString() || sha->asString() != ref.sha[i]) {
    return "response sha256 differs from the compile-cold digest";
  }
  const json::Value* cached = resp.find("cached");
  if (warm && (!cached || !cached->isBool() || !cached->asBool())) {
    return "warm request was not a cache hit";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Measured loops

/// What one loop measured: per-operation latencies and the throughput of
/// each window of jobs.size() operations (a pass over the job set for the
/// compile and verify loops). The reported rate is the median window, so
/// a burst of outside load moves it less than a mean would. The speed
/// probe runs between windows, outside every measured interval, and each
/// window's times are multiplied by kNominalProbeMs over the mean of the
/// probe samples just before and just after it, so load that comes and
/// goes within a run is scaled out where it happened. The unscaled
/// figures are kept too, for the run's report on standard error.
class Loop {
 public:
  explicit Loop(SpeedProbe& probe) : probe_(&probe), lastProbeMs_(probe.sample()) {}

  std::vector<double> latMs; ///< per operation, scaled once its window ends
  std::vector<double> rawLatMs;
  std::vector<double> windowOpsPerS;
  std::vector<double> rawWindowOpsPerS;
  int64_t ops() const { return static_cast<int64_t>(latMs.size()); }
  double opsPerS() const { return median(windowOpsPerS); }

  void add(double ms) {
    latMs.push_back(ms);
    rawLatMs.push_back(ms);
    windowMs_ += ms;
  }
  void endWindow() {
    const double probeMs = probe_->sample();
    const double scale = kNominalProbeMs / ((lastProbeMs_ + probeMs) / 2);
    lastProbeMs_ = probeMs;
    for (size_t k = windowStart_; k < latMs.size(); ++k) latMs[k] *= scale;
    const double rate = static_cast<double>(latMs.size() - windowStart_) * 1e3 / windowMs_;
    rawWindowOpsPerS.push_back(rate);
    windowOpsPerS.push_back(rate / scale);
    windowStart_ = latMs.size();
    windowMs_ = 0;
  }

 private:
  SpeedProbe* probe_;
  double lastProbeMs_;
  size_t windowStart_ = 0;
  double windowMs_ = 0;
};

/// The traced half of a run: the tracer plus counters recorded at the same
/// boundaries as the spans.
struct TraceState {
  Tracer tracer{kKeepSpans};
  int64_t cacheHits = 0, cacheMisses = 0;
  int64_t netlistRefEvals = 0, fastsimEvals = 0;
  double serverMs = 0, bytesOut = 0;
};

// A traced operation runs the same library calls as an untraced one, with
// spans around them; the tracing overhead is the only difference between
// the halves. Layers that run inside one library call (the cache inside
// compileBatch, the engines inside verifyKernel, the daemon's cache) are
// timed by extra calls made after the operation's time is taken
// ("attribution" calls, their own root spans in the trace).

// --- compile-cold ------------------------------------------------------------

/// The passes compileBatch just ran, as child spans of the open span: the
/// durations are the library's own PassStatistics::wallMs; the spans are
/// laid back to back from the start of the call.
void recordPasses(Tracer& tr, int64_t startNs, const std::vector<PassStatistics>& passLog, int ji) {
  int64_t at = startNs;
  for (const PassStatistics& p : passLog) {
    if (!p.ran) continue;
    const int64_t dur = static_cast<int64_t>(p.wallMs * 1e6);
    tr.record(intern("pass." + p.name), at, dur, ji);
    at += dur;
  }
}

Loop compileCold(const std::vector<BenchJob>& jobs, const Reference& ref, SplitMix64& rng,
                 double seconds, Loop loop, Checker& check, TraceState* trace) {
  CompileService service(1);
  const int64_t deadline = nowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    const auto cache = std::make_shared<CompileCache>();
    service.setCache(cache);
    CompileCache side; // attribution: the cache calls of compileBatch, timed alone
    for (const size_t i : shuffled(jobs.size(), rng)) {
      const std::vector<CompileJob> one{jobs[i].job};
      const int ji = static_cast<int>(i);
      BatchResult b;
      vhdl::CheckResult chk;
      synth::Report est;
      const int64_t t0 = nowNs();
      if (!trace) {
        b = service.compileBatch(one);
        chk = vhdl::checkDesign(b.results[0].vhdl);
        est = synth::estimate(b.results[0].module, estimateOptions());
      } else {
        Tracer& tr = trace->tracer;
        const Scope job(tr, "driver.job", ji);
        {
          const Scope s(tr, "roccc.compileBatch", ji);
          b = service.compileBatch(one);
          recordPasses(tr, s.startNs(), b.results[0].passLog, ji);
        }
        {
          const Scope s(tr, "vhdl.check", ji);
          chk = vhdl::checkDesign(b.results[0].vhdl);
        }
        {
          const Scope s(tr, "synth.estimate", ji);
          est = synth::estimate(b.results[0].module, estimateOptions());
        }
      }
      loop.add(msSince(t0));
      const CompileResult& r = b.results[0];
      const bool hit = b.cacheHits != 0;
      if (trace) {
        ++(hit ? trace->cacheHits : trace->cacheMisses);
        Tracer& tr = trace->tracer;
        std::string key;
        {
          const Scope s(tr, "cache.key", ji);
          key = computeCacheKey(jobs[i].job.source, jobs[i].job.options);
        }
        {
          const Scope s(tr, "cache.lookup", ji);
          (void)side.lookup(key);
        }
        if (isCacheable(r, jobs[i].job.options)) {
          const Scope s(tr, "cache.insert", ji);
          side.insert(key, CacheEntry::fromResult(r));
        }
      }
      check.op("compile " + jobs[i].id,
               hit ? "cache hit on a fresh cache" : checkCompiled(r, chk, est, ref, i));
    }
    loop.endWindow();
  } while (nowNs() < deadline);
  return loop;
}

// --- verify-sim --------------------------------------------------------------

/// The attribution calls of verifyKernel, one span each: an interp-only
/// run (the oracle always runs), then interp plus each other engine, then
/// all five without the testbench. The operation itself is all five with
/// the testbench. Each engine's time is the difference to the interp-only
/// run (layerMetrics).
constexpr std::pair<const char*, unsigned> kVerifyAttribution[] = {
    {"verify.engines.interp", 1u << static_cast<int>(VerifyEngine::Interp)},
    {"verify.engines.mir-exec", 1u << static_cast<int>(VerifyEngine::MirExec)},
    {"verify.engines.dp-eval", 1u << static_cast<int>(VerifyEngine::DpEval)},
    {"verify.engines.netlist-ref", 1u << static_cast<int>(VerifyEngine::NetlistRef)},
    {"verify.engines.fastsim", 1u << static_cast<int>(VerifyEngine::FastSim)},
    {"verify.engines.all", (1u << kVerifyEngineCount) - 1},
};

std::string attributeVerify(const BenchJob& job, const Reference& ref, size_t i,
                            const VerifyOptions& full, TraceState& trace) {
  Tracer& tr = trace.tracer;
  const int ji = static_cast<int>(i);
  {
    const Scope s(tr, "frontend.parse", ji);
    DiagEngine diags;
    ast::Module m = ast::parse(job.job.source, diags);
    if (diags.hasErrors() || !ast::analyze(m, diags)) return "golden model failed to build";
  }
  for (const auto& [name, mask] : kVerifyAttribution) {
    VerifyOptions vo = full;
    vo.engineMask = mask;
    vo.checkTestbench = false;
    KernelVerdict v;
    {
      const Scope s(tr, name, ji);
      v = verifyKernel(job.id, job.job.source, ref.results[i], vo);
    }
    if (v.outcome != CompileOutcome::Ok || !v.agree) return std::string(name) + ": engines disagree";
  }
  const int64_t evals = static_cast<int64_t>(ref.results[i].module.cells.size()) * ref.cycles[i];
  trace.netlistRefEvals += evals;
  trace.fastsimEvals += evals;
  return "";
}

std::string checkVerdict(const KernelVerdict& v, std::vector<uint64_t>& digests, size_t i) {
  if (v.outcome != CompileOutcome::Ok) return "verdict outcome " + std::string(compileOutcomeName(v.outcome));
  if (!v.agree || !v.testbenchPassed) {
    return v.disagreements.empty() ? "testbench failed" : v.disagreements.front().detail;
  }
  if (v.enginesRun != kVerifyEngineCount) return "not every engine ran";
  if (digests[i] == 0) digests[i] = v.outputDigest;
  if (digests[i] != v.outputDigest) return "golden output digest changed between passes";
  return "";
}

Loop verifySim(const std::vector<BenchJob>& jobs, const Reference& ref, SplitMix64& rng,
               uint64_t stimulusSeed, double seconds, Loop loop, Checker& check,
               TraceState* trace) {
  VerifyOptions vo;
  vo.seed = stimulusSeed;
  vo.checkTestbench = true;
  std::vector<uint64_t> digests(jobs.size(), 0);
  const int64_t deadline = nowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    for (const size_t i : shuffled(jobs.size(), rng)) {
      KernelVerdict v;
      const int64_t t0 = nowNs();
      if (!trace) {
        v = verifyKernel(jobs[i].id, jobs[i].job.source, ref.results[i], vo);
      } else {
        const Scope s(trace->tracer, "verify.kernel", static_cast<int>(i));
        v = verifyKernel(jobs[i].id, jobs[i].job.source, ref.results[i], vo);
      }
      loop.add(msSince(t0));
      std::string problem = checkVerdict(v, digests, i);
      if (trace && problem.empty()) problem = attributeVerify(jobs[i], ref, i, vo, *trace);
      check.op("verify " + jobs[i].id, problem);
    }
    loop.endWindow();
  } while (nowNs() < deadline);
  return loop;
}

// --- service-warm ------------------------------------------------------------

/// The in-process daemon with its cache warmed by one compile of every
/// job, plus (for traced runs) a benchmark-held cache holding the same
/// entries, on which the daemon's cache read path is timed per request.
struct Service {
  std::unique_ptr<ServiceDaemon> daemon;
  std::string socketPath;
  std::unique_ptr<CompileCache> mirror;
};

bool startService(const std::vector<BenchJob>& jobs, const Reference& ref, const fs::path& outDir,
                  bool withMirror, Service& svc, Checker& check) {
  svc.socketPath = (outDir / ("perfbench-" + std::to_string(::getpid()) + ".sock")).string();
  ServiceConfig cfg;
  cfg.socketPath = svc.socketPath;
  cfg.workers = 1; // one closed-loop client keeps at most one job in flight
  cfg.cacheEnabled = true;
  svc.daemon = std::make_unique<ServiceDaemon>(cfg);
  std::string error;
  if (!svc.daemon->start(error)) {
    std::fprintf(stderr, "perfbench: daemon failed to start: %s\n", error.c_str());
    return false;
  }
  ServiceClient warmer;
  if (!warmer.connect(svc.socketPath, error)) {
    std::fprintf(stderr, "perfbench: cannot connect to the daemon: %s\n", error.c_str());
    return false;
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    json::Value resp;
    const bool sent = warmer.request(jobs[i].request, resp, error);
    check.op("warm " + jobs[i].id, sent ? checkResponse(resp, ref, i, false) : "transport: " + error);
  }
  if (withMirror) {
    svc.mirror = std::make_unique<CompileCache>();
    for (size_t i = 0; i < jobs.size(); ++i) {
      svc.mirror->insert(computeCacheKey(jobs[i].job.source, jobs[i].job.options),
                         CacheEntry::fromResult(ref.results[i]));
    }
  }
  return true;
}

void stopService(Service& svc) {
  if (svc.daemon) svc.daemon->stop();
  svc = Service{};
}

/// The daemon's cache hit/miss counters from a `metrics` request.
std::pair<int64_t, int64_t> daemonCacheCounters(const std::string& socketPath) {
  ServiceClient client;
  std::string error;
  json::Value req = json::Value::object();
  req.set("type", json::Value::string("metrics"));
  json::Value resp;
  if (!client.connect(socketPath, error) || !client.request(req, resp, error)) return {0, 0};
  const json::Value* cache = resp.find("cache");
  const json::Value* hits = cache ? cache->find("hits") : nullptr;
  const json::Value* misses = cache ? cache->find("misses") : nullptr;
  return {hits && hits->isNumber() ? hits->asInt() : 0,
          misses && misses->isNumber() ? misses->asInt() : 0};
}

/// One request: the body of ServiceClient::request (the request already
/// carries "proto") — dump, requestRaw, parse — with a span around each
/// step when `tr` is set, so both halves of a traced run make the same
/// calls.
std::string roundTrip(ServiceClient& client, const json::Value& req, json::Value& resp,
                      std::string& raw, Tracer* tr, int ji) {
  std::optional<Scope> request, step;
  if (tr) request.emplace(*tr, "service.request", ji);
  if (tr) step.emplace(*tr, "json.dump", ji);
  const std::string line = req.dump();
  if (tr) step.emplace(*tr, "service.rtt", ji);
  std::string error;
  if (!client.requestRaw(line, raw, error)) return "transport: " + error;
  if (tr) step.emplace(*tr, "json.parse", ji);
  if (!json::parse(raw, resp, error)) return "unparseable response: " + error;
  return "";
}

/// Attribution: the daemon's cache read path (key, lookup, materialize),
/// which runs inside the daemon where no span can be placed, timed on the
/// benchmark-held cache with the same entries.
std::string attributeCacheRead(const BenchJob& job, const Reference& ref, size_t i,
                               CompileCache& mirror, Tracer& tr) {
  const int ji = static_cast<int>(i);
  std::string key;
  {
    const Scope s(tr, "cache.key", ji);
    key = computeCacheKey(job.job.source, job.job.options);
  }
  std::shared_ptr<const CacheEntry> entry;
  {
    const Scope s(tr, "cache.lookup", ji);
    entry = mirror.lookup(key);
  }
  if (!entry) return "mirror cache missed";
  CompileResult materialized;
  {
    const Scope s(tr, "cache.materialize", ji);
    materialized = entry->toResult();
  }
  return materialized.vhdl == ref.results[i].vhdl ? "" : "mirror cache entry differs";
}

Loop serviceWarm(const std::vector<BenchJob>& jobs, const Reference& ref, const Service& svc,
                 SplitMix64& rng, double seconds, Loop loop, Checker& check,
                 TraceState* trace) {
  ServiceClient client;
  std::string error;
  if (!client.connect(svc.socketPath, error)) {
    check.op("connect", "transport: " + error);
    return loop;
  }
  const auto before = trace ? daemonCacheCounters(svc.socketPath) : std::pair<int64_t, int64_t>{};
  const int64_t deadline = nowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    for (size_t w = 0; w < jobs.size(); ++w) {
      const size_t i = rng.next() % jobs.size();
      json::Value resp;
      std::string raw;
      const int64_t t0 = nowNs();
      std::string problem = roundTrip(client, jobs[i].request, resp, raw,
                                      trace ? &trace->tracer : nullptr, static_cast<int>(i));
      loop.add(msSince(t0));
      if (problem.empty()) problem = checkResponse(resp, ref, i, true);
      if (trace && problem.empty()) {
        trace->bytesOut += static_cast<double>(raw.size()) + 1;
        const json::Value* server = resp.find("serviceMs");
        if (server && server->isNumber()) trace->serverMs += server->asDouble();
        problem = attributeCacheRead(jobs[i], ref, i, *svc.mirror, trace->tracer);
      }
      check.op("request " + jobs[i].id, problem);
    }
    loop.endWindow();
  } while (nowNs() < deadline);
  if (trace) {
    const auto after = daemonCacheCounters(svc.socketPath);
    trace->cacheHits += after.first - before.first;
    trace->cacheMisses += after.second - before.second;
  }
  return loop;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void printResult(const Checker& check, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += check.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(check.attempted);
  out += ", \"failed\": " + std::to_string(check.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
void writeChromeTrace(const fs::path& path, const Tracer& tracer,
                      const std::vector<BenchJob>& jobs) {
  const int64_t epoch = tracer.kept().empty() ? 0 : tracer.kept().front().startNs;
  std::ofstream out(path, std::ios::binary);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t k = 0; k < tracer.kept().size(); ++k) {
    const auto& s = tracer.kept()[k];
    const std::string name = s.name;
    out << (k ? ",\n" : "\n") << "{\"name\": \"" << name << "\", \"cat\": \""
        << name.substr(0, name.find('.')) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0"
        << ", \"ts\": " << number(static_cast<double>(s.startNs - epoch) / 1e3)
        << ", \"dur\": " << number(static_cast<double>(s.endNs - s.startNs) / 1e3)
        << ", \"args\": {\"job\": \""
        << (s.job >= 0 ? jobs[static_cast<size_t>(s.job)].id : std::string())
        << "\", \"span\": " << k << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
}

/// Per-layer metrics from the traced half: mean self time per operation
/// for each span name (times multiplied by `scale`), plus the counters
/// recorded at the same boundaries.
std::vector<Metric> layerMetrics(const TraceState& trace, const Loop& traced, const Loop& untraced,
                                 const Reference& ref, double scale, double probeMs) {
  const double ops = std::max<double>(1, static_cast<double>(traced.ops()));
  const auto selfMs = [&](const std::string& span) {
    const auto it = trace.tracer.totals().find(span);
    return it == trace.tracer.totals().end() ? 0.0 : static_cast<double>(it->second.selfNs) / 1e6;
  };
  std::vector<Metric> m;
  const auto perOp = [&](const std::string& span) {
    m.push_back({span + ".ms", selfMs(span) * scale / ops, "ms"});
  };
  double compileMs = selfMs("vhdl.check") + selfMs("synth.estimate");
  for (const char* p : kPassNames) {
    perOp(std::string("pass.") + p);
    compileMs += selfMs(std::string("pass.") + p);
  }
  perOp("vhdl.check");
  perOp("synth.estimate");
  const double emitMs = selfMs("pass.emit-vhdl") + selfMs("pass.emit-verilog");
  m.push_back({"pass.emit.share_pct", compileMs > 0 ? 100 * emitMs / compileMs : 0, "%"});
  for (const char* span : {"cache.key", "cache.lookup", "cache.insert", "cache.materialize"}) perOp(span);
  const double lookups = static_cast<double>(trace.cacheHits + trace.cacheMisses);
  m.push_back({"cache.hits", static_cast<double>(trace.cacheHits), "count"});
  m.push_back({"cache.misses", static_cast<double>(trace.cacheMisses), "count"});
  m.push_back({"cache.hit_ratio", lookups > 0 ? static_cast<double>(trace.cacheHits) / lookups : 0, "ratio"});
  // verify-sim: each engine is its attribution run minus the interp-only
  // run; the testbench is the operation minus all five engines without it.
  const double interpOnlyMs = selfMs("verify.engines.interp");
  const auto engineMs = [&](const char* span) { return (selfMs(span) - interpOnlyMs) * scale; };
  const double parseMs = selfMs("frontend.parse") * scale;
  const double netlistRefMs = engineMs("verify.engines.netlist-ref");
  const double fastsimMs = engineMs("verify.engines.fastsim");
  m.push_back({"frontend.parse.ms", parseMs / ops, "ms"});
  m.push_back({"interp.run.ms", (interpOnlyMs * scale - parseMs) / ops, "ms"});
  m.push_back({"mir.exec.ms", engineMs("verify.engines.mir-exec") / ops, "ms"});
  m.push_back({"dp.eval.ms", engineMs("verify.engines.dp-eval") / ops, "ms"});
  m.push_back({"rtl.netlist_ref.ms", netlistRefMs / ops, "ms"});
  m.push_back({"rtl.fastsim.ms", fastsimMs / ops, "ms"});
  m.push_back({"vhdl.testbench.ms",
               (selfMs("verify.kernel") - selfMs("verify.engines.all")) * scale / ops, "ms"});
  const auto mcellsPerS = [](int64_t evals, double ms) {
    return ms > 0 ? static_cast<double>(evals) / ms / 1e3 : 0;
  };
  m.push_back({"rtl.fastsim.mcell_evals_per_s", mcellsPerS(trace.fastsimEvals, fastsimMs), "Mcell/s"});
  m.push_back({"rtl.netlist_ref.mcell_evals_per_s", mcellsPerS(trace.netlistRefEvals, netlistRefMs),
               "Mcell/s"});
  const double rttMs = selfMs("service.rtt") * scale / ops;
  const double serverMs = rttMs > 0 ? trace.serverMs * scale / ops : 0;
  m.push_back({"service.rtt.ms", rttMs, "ms"});
  m.push_back({"service.server.ms", serverMs, "ms"});
  m.push_back({"service.wire.ms", rttMs - serverMs, "ms"});
  perOp("json.dump");
  perOp("json.parse");
  m.push_back({"service.bytes_out_per_job", trace.bytesOut / ops, "bytes"});
  m.push_back({"ir.rtl_cells", ref.meanCells, "count"});
  m.push_back({"ir.vhdl_bytes", ref.meanVhdlBytes, "bytes"});
  m.push_back({"ir.verilog_bytes", ref.meanVerilogBytes, "bytes"});
  const double overhead = traced.opsPerS() > 0 ? 100 * (untraced.opsPerS() / traced.opsPerS() - 1) : 0;
  m.push_back({"trace.overhead_pct", overhead, "%"});
  m.push_back({"trace.spans", static_cast<double>(trace.tracer.spanCount()), "count"});
  m.push_back({"machine.probe_ms", probeMs, "ms"});
  return m;
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload compile-cold|verify-sim|service-warm --seed N "
                 "--seconds S [--trace 0|1] [--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  const fs::path root = fs::current_path();
  if (!fs::is_directory(root / "tests" / "corpus") || !fs::is_directory(root / "tests" / "golden")) {
    std::fprintf(stderr, "perfbench: run from the repository root (tests/corpus and tests/golden)\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(a.outDir, ec);
  std::signal(SIGPIPE, SIG_IGN);

  const uint64_t stimulusSeed = fnv1aMix(a.seed, fnv1a("perfbench/stimulus"));
  SplitMix64 rng(fnv1aMix(a.seed, fnv1a("perfbench/order")));
  SpeedProbe probe;
  Checker check;

  // Set-up, repeated: the job set, the reference compile, and for
  // service-warm a started daemon with a warmed cache. Each run is scaled
  // by the probe samples just before and just after it.
  std::vector<BenchJob> jobs;
  Reference ref;
  Service svc;
  std::vector<double> setupS, rawSetupS;
  double probeBeforeMs = probe.sample();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stopService(svc);
    const int64_t t0 = nowNs();
    jobs = makeJobSet(root);
    ref = buildReference(jobs, root, stimulusSeed, check);
    if (a.workload == "service-warm" && !startService(jobs, ref, a.outDir, a.trace, svc, check)) {
      stopService(svc);
      return 1;
    }
    const double seconds = static_cast<double>(nowNs() - t0) / 1e9;
    rawSetupS.push_back(seconds);
    const double probeAfterMs = probe.sample();
    setupS.push_back(seconds * kNominalProbeMs / ((probeBeforeMs + probeAfterMs) / 2));
    probeBeforeMs = probeAfterMs;
  }
  probe.reset();
  checkDigestsAcrossRuns(jobs, ref, a.outDir, check);

  const auto runLoop = [&](double seconds, TraceState* trace) {
    Loop loop(probe);
    if (a.workload == "compile-cold") {
      return compileCold(jobs, ref, rng, seconds, std::move(loop), check, trace);
    }
    if (a.workload == "verify-sim") {
      return verifySim(jobs, ref, rng, stimulusSeed, seconds, std::move(loop), check, trace);
    }
    return serviceWarm(jobs, ref, svc, rng, seconds, std::move(loop), check, trace);
  };

  std::vector<Metric> metrics;
  if (!a.trace) {
    const Loop loop = runLoop(a.seconds, nullptr);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"jobs_per_s", loop.opsPerS(), "1/s"},
        {"job_ms_p50", percentile(loop.latMs, 0.50), "ms"},
        {"job_ms_p99", percentile(loop.latMs, 0.99), "ms"},
        {"design_slices_geomean", ref.slicesGeomean, "slices"},
        {"design_fmax_mhz_geomean", ref.fmaxGeomean, "MHz"},
        {"design_cycles_total", static_cast<double>(ref.cyclesTotal), "cycles"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
    std::fprintf(stderr,
                 "perfbench: %s, %lld operations over %zu jobs; %s build, %s\n"
                 "perfbench: probe median %.4f ms, times scaled to a %.1f ms probe; unscaled: "
                 "jobs_per_s %.6g, job_ms_p50 %.6g, job_ms_p99 %.6g, setup_s %.6g\n",
                 a.workload.c_str(), static_cast<long long>(loop.ops()), jobs.size(),
                 PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, probe.medianMs(), kNominalProbeMs,
                 median(loop.rawWindowOpsPerS), percentile(loop.rawLatMs, 0.50),
                 percentile(loop.rawLatMs, 0.99), median(rawSetupS));
  } else {
    const Loop untraced = runLoop(a.seconds / 2, nullptr);
    TraceState trace;
    const Loop traced = runLoop(a.seconds / 2, &trace);
    metrics = layerMetrics(trace, traced, untraced, ref, probe.timeScale(), probe.medianMs());
    const fs::path tracePath =
        a.outDir / ("trace-" + a.workload + "-" + std::to_string(a.seed) + ".json");
    writeChromeTrace(tracePath, trace.tracer, jobs);
    std::fprintf(stderr, "perfbench: wrote %s\n", tracePath.string().c_str());
  }
  stopService(svc);
  printResult(check, metrics);
  return check.failed == 0 ? 0 : 1;
}
