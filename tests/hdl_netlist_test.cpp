// The printed HDL is the netlist: for Table 1 (with each row's stage-delay
// target) and every tests/corpus kernel, at unroll factors 1, 2 and 4, the
// VHDL and the Verilog text of a compile must hold the registers of its
// rtl::Module and deliver each output port at the final stage, as the
// module the simulators execute and the estimator prices does. Two checks,
// read from the text alone, so they do not depend on how signals are named:
//
//   register bits  the widths of the signals assigned inside
//                  `process (clk)` / `always @(posedge clk)` bodies sum to
//                  module.registerBits();
//   output stage   following each top-level output port back through
//                  plain copies and conversions (and node port maps) ends
//                  at a clocked signal exactly when the net the module
//                  drives the port from is a register.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/compiler.hpp"
#include "vhdl/layout.hpp"

namespace roccc {
namespace {

struct Design {
  std::string name;
  std::string source;
  double targetNs = 0;
  int unroll = 1;
};

void PrintTo(const Design& d, std::ostream* os) { *os << d.name; }

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The 66 designs of the IR digest pin: Table 1 + corpus at unroll 1/2/4.
std::vector<Design> designs() {
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const auto& entry : std::filesystem::directory_iterator(ROCCC_CORPUS_DIR)) {
    if (entry.path().extension() == ".c") corpus.emplace_back(entry.path().stem().string(), readFile(entry.path()));
  }
  std::sort(corpus.begin(), corpus.end());
  std::vector<Design> out;
  for (const int u : {1, 2, 4}) {
    for (const auto& k : bench::kTable1Kernels) {
      out.push_back({std::string(k.name) + "_u" + std::to_string(u), k.source, k.targetStageDelayNs, u});
    }
    for (const auto& [name, source] : corpus) out.push_back({name + "_u" + std::to_string(u), source, 0, u});
  }
  return out;
}

// ---- a line reader for the two printers' text ----------------------------

/// One entity or module: declared widths, which signals are assigned in a
/// clocked block and which combinationally (with their right-hand side),
/// and the port maps of its instances.
struct Unit {
  std::map<std::string, int> width;
  std::set<std::string> outPorts;
  std::set<std::string> clocked;
  std::map<std::string, std::string> comb;
  std::vector<std::pair<std::string, std::map<std::string, std::string>>> instances; ///< unit, formal -> actual
};

struct Text {
  std::map<std::string, Unit> units;
};

std::string trim(const std::string& s) {
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "" : s.substr(b, s.find_last_not_of(' ') - b + 1);
}

bool startsWith(const std::string& s, const std::string& p) { return s.compare(0, p.size(), p) == 0; }

std::string firstWord(const std::string& s) {
  size_t e = 0;
  while (e < s.size() && (std::isalnum(static_cast<unsigned char>(s[e])) || s[e] == '_')) ++e;
  return s.substr(0, e);
}

/// Width of a declared type: "(un)signed(H downto 0)", "[H:0]", or one bit.
int widthOf(const std::string& decl) {
  size_t at = decl.find(" downto 0)");
  if (at == std::string::npos) at = decl.find(":0]");
  if (at == std::string::npos) return 1;
  size_t b = at;
  while (b > 0 && std::isdigit(static_cast<unsigned char>(decl[b - 1]))) --b;
  return std::stoi(decl.substr(b, at - b)) + 1;
}

Text parseVhdl(const std::string& text) {
  Text t;
  Unit* u = nullptr;
  bool inPorts = false, clocked = false;
  std::string pendingEntity;
  std::istringstream in(text);
  for (std::string raw; std::getline(in, raw);) {
    const std::string l = trim(raw);
    if (startsWith(l, "entity ") && l.size() > 3 && l.substr(l.size() - 3) == " is") {
      u = &t.units[l.substr(7, l.size() - 10)];
    } else if (l == "port (") {
      inPorts = true;
    } else if (inPorts) {
      if (l == ");") {
        inPorts = false;
        continue;
      }
      const std::string name = firstWord(l);
      u->width[name] = widthOf(l);
      if (l.find(" : out ") != std::string::npos) u->outPorts.insert(name);
    } else if (startsWith(l, "architecture ")) {
      std::istringstream words(l);
      std::string w, entity;
      words >> w >> w >> w >> entity;
      u = &t.units[entity];
    } else if (startsWith(l, "signal ")) {
      u->width[firstWord(l.substr(7))] = widthOf(l);
    } else if (l == "process (clk)") {
      clocked = true;
    } else if (l == "end process;") {
      clocked = false;
    } else if (l.find(" : entity work.") != std::string::npos) {
      pendingEntity = l.substr(l.find("work.") + 5);
      if (!pendingEntity.empty() && pendingEntity.back() == ';') {
        u->instances.push_back({pendingEntity.substr(0, pendingEntity.size() - 1), {}});
      }
    } else if (startsWith(l, "port map (")) {
      std::map<std::string, std::string> assoc;
      std::istringstream items(l.substr(10, l.size() - 12));
      for (std::string item; std::getline(items, item, ',');) {
        const size_t arrow = item.find(" => ");
        if (arrow != std::string::npos) assoc[trim(item.substr(0, arrow))] = trim(item.substr(arrow + 4));
      }
      u->instances.push_back({pendingEntity, assoc});
    } else if (u && l.find(" <= ") != std::string::npos && !startsWith(l, "if ")) {
      const std::string target = firstWord(l);
      if (target.empty() || l.compare(target.size(), 4, " <= ") != 0) continue;
      if (clocked) {
        u->clocked.insert(target);
      } else {
        u->comb[target] = l.substr(target.size() + 4, l.size() - target.size() - 5);
      }
    }
  }
  return t;
}

Text parseVerilog(const std::string& text) {
  Text t;
  Unit* u = nullptr;
  int clockedDepth = 0;
  std::istringstream in(text);
  for (std::string raw; std::getline(in, raw);) {
    std::string l = trim(raw);
    if (startsWith(l, "module ")) {
      const size_t open = l.find('(');
      u = &t.units[trim(l.substr(7, std::min(open, l.find(';')) - 7))];
      if (open == std::string::npos) continue;
      std::istringstream ports(l.substr(open + 1, l.rfind(')') - open - 1));
      for (std::string p; std::getline(ports, p, ',');) {
        p = trim(p);
        const std::string name = p.substr(p.rfind(' ') + 1);
        u->width[name] = widthOf(p);
        if (startsWith(p, "output ")) u->outPorts.insert(name);
      }
    } else if (clockedDepth > 0) {
      if (l.size() >= 5 && l.substr(l.size() - 5) == "begin") {
        ++clockedDepth;
      } else if (l == "end") {
        --clockedDepth;
      } else {
        if (startsWith(l, "if (")) l = trim(l.substr(l.find(')') + 1));
        u->clocked.insert(firstWord(l));
      }
    } else if (startsWith(l, "always @(posedge clk)")) {
      clockedDepth = 1;
    } else if (startsWith(l, "wire ") || startsWith(l, "reg ")) {
      const std::string decl = l.substr(0, l.find_first_of("=;"));
      u->width[trim(decl).substr(trim(decl).rfind(' ') + 1)] = widthOf(decl);
    } else if (startsWith(l, "assign ")) {
      const size_t eq = l.find(" = ");
      u->comb[trim(l.substr(7, eq - 7))] = l.substr(eq + 3, l.size() - eq - 4);
    } else if (u && l.find(" u_") != std::string::npos && l.find('(') != std::string::npos) {
      // MODULE u_name(.formal(actual), ...);
      std::map<std::string, std::string> assoc;
      for (size_t at = l.find('.'); at != std::string::npos; at = l.find('.', at + 1)) {
        const size_t open = l.find('(', at);
        int depth = 0;
        size_t close = open;
        for (; close < l.size(); ++close) {
          if (l[close] == '(') ++depth;
          if (l[close] == ')' && --depth == 0) break;
        }
        assoc[l.substr(at + 1, open - at - 1)] = l.substr(open + 1, close - open - 1);
        at = close;
      }
      u->instances.push_back({firstWord(l), assoc});
    }
  }
  return t;
}

/// The one signal `rhs` copies, possibly through resizes, casts, slices and
/// extensions; empty when `rhs` computes anything (an operator) or names
/// no signal.
std::string copiedSignal(const std::string& rhs) {
  static const std::set<std::string> kConversions = {
      "resize", "signed", "unsigned", "to_signed", "to_unsigned", "std_logic_vector", "downto", "$signed"};
  std::string found;
  for (size_t i = 0; i < rhs.size();) {
    const char c = rhs[i];
    if (std::isdigit(static_cast<unsigned char>(c))) { // number, or a Verilog sized literal
      while (i < rhs.size() && (std::isalnum(static_cast<unsigned char>(rhs[i])) || rhs[i] == '\'')) ++i;
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
      size_t e = i;
      while (e < rhs.size() && (std::isalnum(static_cast<unsigned char>(rhs[e])) || rhs[e] == '_' || rhs[e] == '$')) ++e;
      const std::string w = rhs.substr(i, e - i);
      i = e;
      if (kConversions.count(w)) continue;
      if (w == "and" || w == "or" || w == "xor" || w == "not" || w == "when" || w == "else" ||
          startsWith(w, "shift_") || (!found.empty() && found != w)) {
        return "";
      }
      found = w;
    } else if (std::string("+-*/&|^~<>=?!\"'").find(c) != std::string::npos) {
      return "";
    } else {
      ++i;
    }
  }
  return found;
}

/// Whether `signal` of `unit` is, after copies, conversions and node port
/// maps, a register.
bool reachesRegister(const Text& t, std::string unit, std::string signal) {
  for (int step = 0; step < 64; ++step) {
    const Unit& u = t.units.at(unit);
    if (u.clocked.count(signal)) return true;
    if (const auto it = u.comb.find(signal); it != u.comb.end()) {
      signal = copiedSignal(it->second);
      if (signal.empty()) return false;
      continue;
    }
    bool bound = false;
    for (const auto& [child, assoc] : u.instances) {
      for (const auto& [formal, actual] : assoc) {
        if (actual == signal && t.units.count(child) && t.units.at(child).outPorts.count(formal)) {
          unit = child;
          signal = formal;
          bound = true;
        }
      }
      if (bound) break;
    }
    if (!bound) return false;
  }
  return false;
}

/// Whether the net the module drives an output port from is a register,
/// seen through the conversions the lowering adds.
bool deliveredFromRegister(const rtl::Module& m, int net) {
  for (;;) {
    const int d = m.nets[static_cast<size_t>(net)].driver;
    if (d < 0) return false;
    const rtl::Cell& c = m.cells[static_cast<size_t>(d)];
    if (c.kind == rtl::CellKind::Reg) return true;
    if (c.kind != rtl::CellKind::Resize) return false;
    net = c.inputs[0];
  }
}

void expectTextIsNetlist(const Design& d, bool verilog) {
  CompileOptions options;
  if (d.targetNs > 0) options.dpOptions.targetStageDelayNs = d.targetNs;
  options.unrollFactor = d.unroll;
  options.emitVerilog = true;
  const CompileResult r = Compiler(options).compileSource(d.source);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  const Text t = verilog ? parseVerilog(r.verilog) : parseVhdl(r.vhdl);

  int64_t bits = 0;
  for (const auto& [name, u] : t.units) {
    for (const std::string& s : u.clocked) {
      ASSERT_TRUE(u.width.count(s)) << name << ": clocked '" << s << "' is not declared";
      bits += u.width.at(s);
    }
  }
  EXPECT_EQ(bits, r.module.registerBits()) << "register bits in the text differ from the netlist's";

  const std::string top = hdl::sanitize(r.datapath.name);
  ASSERT_TRUE(t.units.count(top)) << "no top unit '" << top << "'";
  for (size_t p = 0; p < r.datapath.outputs.size(); ++p) {
    const std::string port = hdl::sanitize(r.module.outputNames[p]);
    EXPECT_EQ(reachesRegister(t, top, port), deliveredFromRegister(r.module, r.module.outputPorts[p]))
        << "output port " << port << " is not driven from the stage the netlist delivers it at";
  }
}

class HdlTextIsNetlist : public ::testing::TestWithParam<Design> {};

TEST_P(HdlTextIsNetlist, Vhdl) { expectTextIsNetlist(GetParam(), false); }
TEST_P(HdlTextIsNetlist, Verilog) { expectTextIsNetlist(GetParam(), true); }

INSTANTIATE_TEST_SUITE_P(Table1AndCorpus, HdlTextIsNetlist, ::testing::ValuesIn(designs()),
                         [](const ::testing::TestParamInfo<Design>& info) { return info.param.name; });

} // namespace
} // namespace roccc
