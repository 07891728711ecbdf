#include "support/faultpoint.hpp"

namespace roccc {

const std::vector<FaultPointInfo>& faultPointRegistry() {
  // Every compiled-in faultpoint() site, with the pipeline pass that reaches
  // it on a default compile (so the sweep can assert the failing-pass
  // attribution). Keep in sync with the call sites; the injection sweep
  // fails if an entry here no longer fires.
  static const std::vector<FaultPointInfo> kRegistry = {
      {"frontend.parse", "parse"},               // ast::parse (frontend/parser.cpp)
      {"hlir.lut-convert", "lut-convert"},       // convertCallsToLookupTables (hlir/transforms.cpp)
      {"hlir.inline", "inline"},                 // inlineCalls (hlir/transforms.cpp)
      {"hlir.unroll", "unroll"},                 // unroll pass body (roccc/compiler.cpp)
      {"hlir.extract-kernel", "extract-kernel"}, // extractKernel (hlir/kernel.cpp)
      {"mir.lower", "lower-mir"},                // lowerToMir (mir/lower.cpp)
      {"mir.ssa", "ssa-build"},                  // buildSSA (mir/ssa.cpp)
      {"mir.optimize", "mir-optimize"},          // runStandardPasses fixpoint (mir/passes.cpp)
      {"dp.build", "build-datapath"},            // buildDataPath (dp/datapath.cpp)
      {"rtl.elaborate", "build-rtl"},            // buildDatapathModule (rtl/from_dp.cpp)
      {"vhdl.emit", "emit-vhdl"},                // vhdl::emitDesign (vhdl/emit.cpp)
      {"verilog.emit", "emit-verilog"},          // verilog::emitDesign (vhdl/verilog.cpp)
      {"driver.job", ""},                        // CompileService job boundary (roccc/driver.cpp)
  };
  return kRegistry;
}

namespace {

// Armed name for this thread, or nullptr. Per-thread (not global) so arming
// one batch job cannot leak into its siblings on other workers; the scope's
// destructor restores the previous value so worker reuse cannot leak either.
thread_local const std::string* tlArmed = nullptr;

} // namespace

void faultpoint(const char* name) {
  if (!tlArmed) return; // the disarmed fast path
  if (*tlArmed == name) throw FaultInjected(name);
}

bool faultInjectionArmed() { return tlArmed != nullptr; }

FaultInjectionScope::FaultInjectionScope(const std::string& name) : prev_(tlArmed), name_(name) {
  if (!name_.empty()) tlArmed = &name_;
}

FaultInjectionScope::~FaultInjectionScope() {
  if (!name_.empty()) tlArmed = prev_;
}

} // namespace roccc
