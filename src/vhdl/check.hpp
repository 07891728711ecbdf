// Lightweight VHDL structural validator: checks the properties a synthesis
// front end would reject immediately — matched entity/architecture/process/
// if blocks, entity-name agreement, declared-before-used signals/ports inside
// each architecture, and that every `entity work.X` instantiation resolves to
// an emitted entity. It reads the text in one streaming pass (check.cpp, which
// also holds verilog::checkDesign). It is a checker for our generator, not a
// general VHDL parser.
#pragma once

#include <string>
#include <vector>

namespace roccc::vhdl {

struct CheckResult {
  bool ok = true;
  std::vector<std::string> problems;
  int entityCount = 0;
  int architectureCount = 0;
  int processCount = 0;
  int instantiationCount = 0;
};

CheckResult checkDesign(const std::string& vhdlText);

} // namespace roccc::vhdl
