// roccc-client — command-line client for the roccc-ccd daemon.
//
//   roccc-client [options] kernel.c [kernel2.c ...]   compile via the daemon
//   roccc-client --status|--metrics|--ping|--reload   admin requests
//   roccc-client --drain M                            drain (stop|pause|resume)
//
// Speaks `roccc-ccd-v1` over the daemon's AF_UNIX socket (docs/SERVICE.md).
// One input sends a `compile` request and writes <input>.vhd; several
// inputs send one `batch` request and write one .vhd each — the daemon
// guarantees the bytes match a local roccc-cc run of the same job.
//
// Exit codes: the roccc-cc outcome codes (0 ok, 1 frontend error, 2 usage,
// 3 timeout, 4 resource budget exceeded, 5 internal error) plus two
// service-edge codes: 6 transport/protocol failure (cannot connect, bad
// frame), 7 request rejected by the daemon (queue-full, draining,
// quota-exceeded, bad-request, ...).
//
// Every --opt VALUE option also accepts the --opt=VALUE spelling. The
// compile flags come from the option table (roccc/options.hpp): each is
// validated as roccc-cc validates it and sent under its protocol key.
// docs/CLI.md is the full flag reference; a CI test keeps it in sync with
// the --help output generated from the option list below.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "roccc/options.hpp"
#include "roccc/service_net.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

namespace {

constexpr int kExitTransport = 6;
constexpr int kExitRejected = 7;

struct Args {
  std::string socketPath = "roccc-ccd.sock";
  std::vector<std::string> inputs;
  std::string output;
  std::string verilogPath;
  roccc::json::Value options = roccc::json::Value::object();
  std::string drainMode; ///< empty = no drain request
  bool status = false;
  bool metrics = false;
  bool ping = false;
  bool reload = false;
  bool rawJson = false;
  bool quiet = false;
  bool showHelp = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] kernel.c [kernel2.c ...]\n"
               "       %s --status | --metrics | --ping | --reload | --drain M\n"
               "       %s --help for the option list (docs/CLI.md, docs/SERVICE.md)\n",
               argv0, argv0, argv0);
  return 2;
}

/// The option list: --help and the docs/CLI.md sync check are generated
/// from it, so every option lives here.
std::vector<roccc::cli::OptionSpec> optionList(Args& a) {
  using roccc::OptionId;
  using roccc::cli::setFlag;
  using roccc::cli::setString;
  const auto compile = [&a](OptionId id, const char* help = nullptr) {
    return roccc::protocolFlag(id, a.options, help);
  };
  return {
      {"--socket", "PATH", "daemon socket path (default: roccc-ccd.sock)", setString(a.socketPath)},
      {"-o", "FILE", "output VHDL path (single input only; default: <input>.vhd)",
       setString(a.output)},
      compile(OptionId::Kernel),
      compile(OptionId::Unroll),
      compile(OptionId::TargetNs, "pipeline stage delay target in ns"),
      compile(OptionId::MultStyle, "multiplier style: 'lut' or 'mult18'"),
      compile(OptionId::Pipeline),
      compile(OptionId::WidthMode),
      compile(OptionId::AutoUnrollBudget),
      compile(OptionId::FullUnroll),
      compile(OptionId::LutConvert),
      compile(OptionId::Optimize),
      compile(OptionId::TimingModel, "send FILE's delay/area/energy table with the job"),
      compile(OptionId::VerifyEach),
      roccc::protocolFlag(OptionId::Verilog, a.options,
                          "also request and write the Verilog form (single input only)",
                          &a.verilogPath),
      compile(OptionId::TimeoutMs, "per-job deadline in ms (clamped to the server ceiling)"),
      compile(OptionId::MaxIrNodes, "per-job IR-node cap (clamped to the server ceiling)"),
      compile(OptionId::MaxUnrollProduct, "unroll-product cap (clamped to the server ceiling)"),
      compile(OptionId::MaxDepth, "nesting depth cap (clamped to the server ceiling)"),
      compile(OptionId::InjectFault, "arm fault point P in the daemon-side job"),
      {"--status", nullptr, "print the daemon status response", setFlag(a.status)},
      {"--metrics", nullptr, "print the live metrics response", setFlag(a.metrics)},
      {"--ping", nullptr, "liveness check (expects a pong)", setFlag(a.ping)},
      {"--reload", nullptr, "rebuild the daemon's cache over its directory", setFlag(a.reload)},
      {"--drain", "M", "drain the daemon: 'stop', 'pause' or 'resume'",
       [&a](const char* v, std::string&) {
         a.drainMode = v;
         return a.drainMode == "stop" || a.drainMode == "pause" || a.drainMode == "resume";
       }},
      {"--json", nullptr, "print raw JSON responses instead of writing files", setFlag(a.rawJson)},
      {"--quiet", nullptr, "only errors", setFlag(a.quiet)},
      {"--help", nullptr, "print this option list and exit", setFlag(a.showHelp)},
  };
}

/// Maps a response row's `status` string back to a process exit code —
/// the roccc-cc outcome codes, plus 7 for service-edge rejections.
int exitCodeForStatus(const std::string& status) {
  if (status == "ok") return 0;
  if (status == "frontend-error") return 1;
  if (status == "timeout") return 3;
  if (status == "resource-exceeded") return 4;
  if (status == "internal-error") return 5;
  return kExitRejected;
}

std::string defaultOutputPath(const std::string& input) {
  std::string out = input;
  const size_t dot = out.rfind('.');
  const size_t slash = out.find_last_of('/');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) out.resize(dot);
  return out + ".vhd";
}

int transportError(const std::string& error) {
  std::fprintf(stderr, "error: %s\n", error.c_str());
  return kExitTransport;
}

/// Prints a typed daemon error response and returns the matching exit code.
int reportRejection(const roccc::json::Value& resp) {
  const roccc::json::Value* e = resp.find("error");
  const roccc::json::Value* code = e ? e->find("code") : nullptr;
  const roccc::json::Value* message = e ? e->find("message") : nullptr;
  std::fprintf(stderr, "daemon rejected the request (%s): %s\n",
               code && code->isString() ? code->asString().c_str() : "?",
               message && message->isString() ? message->asString().c_str() : "");
  return kExitRejected;
}

bool isError(const roccc::json::Value& resp) {
  const roccc::json::Value* type = resp.find("type");
  return !type || !type->isString() || type->asString() == "error";
}

void printDiags(const std::string& name, const roccc::json::Value& row) {
  const roccc::json::Value* diags = row.find("diags");
  if (!diags || !diags->isArray()) return;
  for (const auto& d : diags->items()) {
    if (d.isString()) std::fprintf(stderr, "%s: %s\n", name.c_str(), d.asString().c_str());
  }
}

/// Writes one compiled row's artifacts. Returns the row's exit code.
int consumeRow(const Args& a, const roccc::json::Value& row, const std::string& outputPath) {
  const roccc::json::Value* status = row.find("status");
  const roccc::json::Value* name = row.find("name");
  const std::string label = name && name->isString() ? name->asString() : "<job>";
  const std::string st = status && status->isString() ? status->asString() : "internal-error";
  if (st != "ok") {
    std::fprintf(stderr, "%s: %s\n", label.c_str(), st.c_str());
    printDiags(label, row);
    return exitCodeForStatus(st);
  }
  const roccc::json::Value* vhdl = row.find("vhdl");
  if (!vhdl || !vhdl->isString()) {
    std::fprintf(stderr, "%s: daemon response carries no VHDL\n", label.c_str());
    return kExitTransport;
  }
  std::ofstream out(outputPath);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", outputPath.c_str());
    return 1;
  }
  out << vhdl->asString();
  if (!a.verilogPath.empty()) {
    const roccc::json::Value* verilog = row.find("verilog");
    if (verilog && verilog->isString()) {
      std::ofstream vout(a.verilogPath);
      vout << verilog->asString();
    }
  }
  if (!a.quiet) {
    const roccc::json::Value* cached = row.find("cached");
    const roccc::json::Value* sha = row.find("sha256");
    std::printf("%-32s -> %s (%zu bytes%s, sha256 %.12s)\n", label.c_str(), outputPath.c_str(),
                vhdl->asString().size(), cached && cached->isBool() && cached->asBool() ? ", cached" : "",
                sha && sha->isString() ? sha->asString().c_str() : "?");
  }
  return 0;
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
                   "Compiles C kernels through a running roccc-ccd daemon (byte-identical to\n"
                   "roccc-cc). docs/CLI.md is the flag reference; docs/SERVICE.md the protocol.\n\n"
                   "options:\n",
                   argv[0]),
        options,
        "\nexit codes: 0 ok, 1 frontend error, 2 usage, 3 timeout,\n"
        "            4 resource budget exceeded, 5 internal error,\n"
        "            6 transport/protocol failure, 7 rejected by the daemon\n");
    return 0;
  }
  const int adminOps = static_cast<int>(a.status) + static_cast<int>(a.metrics) +
                       static_cast<int>(a.ping) + static_cast<int>(a.reload) +
                       static_cast<int>(!a.drainMode.empty());
  if (adminOps > 1 || (adminOps == 1 && !a.inputs.empty()) ||
      (adminOps == 0 && a.inputs.empty())) {
    return usage(argv[0]);
  }
  if (a.inputs.size() > 1 && (!a.output.empty() || !a.verilogPath.empty())) {
    std::fprintf(stderr, "error: -o/--verilog are incompatible with multiple inputs\n");
    return 2;
  }

  roccc::ServiceClient client;
  if (!client.connect(a.socketPath, error)) return transportError(error);

  using roccc::json::Value;
  if (adminOps == 1) {
    Value req = Value::object();
    req.set("type", Value::string(a.status    ? "status"
                                  : a.metrics ? "metrics"
                                  : a.ping    ? "ping"
                                  : a.reload  ? "reload"
                                              : "drain"));
    if (!a.drainMode.empty()) req.set("mode", Value::string(a.drainMode));
    Value resp;
    if (!client.request(req, resp, error)) return transportError(error);
    if (isError(resp)) return reportRejection(resp);
    std::printf("%s\n", resp.dump().c_str());
    return 0;
  }

  // Compile path: one input = `compile`, several = one `batch` request.
  std::vector<std::string> sources;
  for (const std::string& path : a.inputs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back(buf.str());
  }

  Value resp;
  if (a.inputs.size() == 1) {
    const Value req = roccc::makeCompileRequest(a.inputs[0], sources[0], a.options);
    if (!client.request(req, resp, error)) return transportError(error);
    if (a.rawJson) {
      std::printf("%s\n", resp.dump().c_str());
      return 0;
    }
    if (isError(resp)) return reportRejection(resp);
    return consumeRow(a, resp, a.output.empty() ? defaultOutputPath(a.inputs[0]) : a.output);
  }

  Value req = Value::object();
  req.set("type", Value::string("batch"));
  Value jobs = Value::array();
  for (size_t i = 0; i < a.inputs.size(); ++i) {
    Value job = Value::object();
    job.set("name", Value::string(a.inputs[i]));
    job.set("source", Value::string(sources[i]));
    if (!a.options.members().empty()) job.set("options", a.options);
    jobs.push(std::move(job));
  }
  req.set("jobs", std::move(jobs));
  if (!client.request(req, resp, error)) return transportError(error);
  if (a.rawJson) {
    std::printf("%s\n", resp.dump().c_str());
    return 0;
  }
  if (isError(resp)) return reportRejection(resp);
  const Value* rows = resp.find("results");
  if (!rows || !rows->isArray() || rows->items().size() != a.inputs.size()) {
    return transportError("malformed batch-result response");
  }
  int firstFailureExit = 0;
  for (size_t i = 0; i < a.inputs.size(); ++i) {
    const int code = consumeRow(a, rows->items()[i], defaultOutputPath(a.inputs[i]));
    if (code != 0 && firstFailureExit == 0) firstFailureExit = code;
  }
  if (!a.quiet) {
    const Value* ok = resp.find("ok");
    const Value* rejected = resp.find("rejected");
    const Value* wallMs = resp.find("wallMs");
    std::printf("batch: %lld/%zu ok, %lld rejected, %.1f ms daemon wall time\n",
                ok && ok->isNumber() ? static_cast<long long>(ok->asInt()) : -1, a.inputs.size(),
                rejected && rejected->isNumber() ? static_cast<long long>(rejected->asInt()) : -1,
                wallMs && wallMs->isNumber() ? wallMs->asDouble() : 0.0);
  }
  return firstFailureExit;
}
