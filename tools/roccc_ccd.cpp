// roccc-ccd — the compile-as-a-service daemon.
//
//   roccc-ccd [options]
//
// Binds an AF_UNIX socket and serves `roccc-ccd-v1` (line-delimited JSON;
// docs/SERVICE.md is the operations book) until a client sends `drain` or
// the process receives SIGTERM/SIGINT. Compiles run on a shared worker
// pool behind a bounded admission window; the optional content-addressed
// compile cache is shared by every client and, with --cache-dir, by every
// daemon generation.
//
// Exit codes: 0 clean drain/stop, 1 startup failure, 2 usage.
//
// Every --opt VALUE option also accepts the --opt=VALUE spelling. The
// ceilings, --target-ns and --timing-model are option-table flags
// (roccc/options.hpp), spelled and validated as roccc-cc's. docs/CLI.md is
// the full flag reference; a CI test keeps it in sync with the --help
// output generated from the option list below.
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "roccc/options.hpp"
#include "roccc/service_net.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

namespace {

struct Args {
  roccc::ServiceConfig cfg;
  /// The ceiling flags parse into this budget; it becomes cfg.budgetCeiling.
  roccc::CompileOptions ceilings;
  bool showHelp = false;
  Args() { cfg.quiet = false; }
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "       %s --help for the option list (docs/CLI.md, docs/SERVICE.md)\n",
               argv0, argv0);
  return 2;
}

/// The option list: --help and the docs/CLI.md sync check are generated
/// from it, so every option lives here.
std::vector<roccc::cli::OptionSpec> optionList(Args& a) {
  using roccc::OptionId;
  using roccc::cli::setInt;
  const auto ceiling = [&a](OptionId id, const char* help) {
    return roccc::compileFlag(id, a.ceilings, help);
  };
  const auto serverDefault = [&a](OptionId id, const char* help) {
    return roccc::compileFlag(id, a.cfg.baseOptions, help);
  };
  return {
      {"--socket", "PATH", "socket path to bind (default: roccc-ccd.sock)",
       roccc::cli::setString(a.cfg.socketPath)},
      {"--jobs", "N", "compile workers (0 = one per hardware thread)", setInt(a.cfg.workers, 0)},
      {"--queue", "N", "admission window: max in-flight jobs across all clients (default 256)",
       setInt(a.cfg.maxQueue, 1)},
      {"--max-client-jobs", "N", "per-connection in-flight job quota (default 64)",
       setInt(a.cfg.maxClientJobs, 1)},
      {"--max-request-bytes", "N", "per-request frame cap in bytes (default 8 MiB)",
       setInt(a.cfg.maxRequestBytes, 64)},
      {"--cache", nullptr, "enable the shared content-addressed compile cache",
       roccc::cli::setFlag(a.cfg.cacheEnabled)},
      {"--cache-dir", "DIR", "persistent on-disk cache tier in DIR (implies --cache)",
       [&a](const char* v, std::string&) {
         a.cfg.cacheEnabled = true;
         a.cfg.cache.diskDir = v;
         return true;
       }},
      {"--cache-bytes", "N", "in-memory cache byte budget (implies --cache)",
       [&a](const char* v, std::string&) {
         a.cfg.cacheEnabled = true;
         return roccc::cli::parseInt(v, a.cfg.cache.maxBytes, 1);
       }},
      ceiling(OptionId::TimeoutMs, "ceiling on per-job wall-clock budgets (0 = none)"),
      ceiling(OptionId::MaxIrNodes, "ceiling on per-job IR-node budgets (0 = none)"),
      ceiling(OptionId::MaxUnrollProduct, "ceiling on per-job unroll-product budgets (0 = none)"),
      ceiling(OptionId::MaxDepth, "ceiling on per-job nesting-depth budgets (0 = none)"),
      serverDefault(OptionId::TargetNs, "server default pipeline stage delay target in ns"),
      serverDefault(OptionId::TimingModel,
                    "server default timing model table (docs/SYNTHESIS.md format)"),
      {"--quiet", nullptr, "suppress lifecycle log lines", roccc::cli::setFlag(a.cfg.quiet)},
      {"--help", nullptr, "print this option list and exit", roccc::cli::setFlag(a.showHelp)},
  };
}

// SIGTERM/SIGINT drain the daemon instead of killing it mid-compile.
// requestDrain() is async-signal-safe (atomic stores + a pipe write).
roccc::ServiceDaemon* g_daemon = nullptr;

void onSignal(int) {
  if (g_daemon) g_daemon->requestDrain();
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
  if (!positional.empty()) return usage(argv[0]);
  if (a.ceilings.budget.timeoutMs < 0) {
    std::fprintf(stderr, "error: a %s ceiling must be >= 0\n",
                 roccc::optionRow(roccc::OptionId::TimeoutMs).flag);
    return usage(argv[0]);
  }
  a.cfg.budgetCeiling = a.ceilings.budget;
  if (a.showHelp) {
    roccc::cli::printHelp(
        roccc::fmt("usage: %0 [options]\n\n"
                   "Serves compile requests over an AF_UNIX socket (protocol roccc-ccd-v1).\n"
                   "docs/CLI.md is the flag reference; docs/SERVICE.md the operations book.\n\n"
                   "options:\n",
                   argv[0]),
        options, "\nexit codes: 0 clean drain/stop, 1 startup failure, 2 usage\n");
    return 0;
  }

  roccc::ServiceDaemon daemon(a.cfg);
  if (!daemon.start(error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_daemon = &daemon;
  struct sigaction sa {};
  sa.sa_handler = onSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  daemon.waitStopped();
  g_daemon = nullptr;
  return 0;
}
