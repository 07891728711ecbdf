#include "rtl/netlist.hpp"

#include <cassert>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "support/faultpoint.hpp"
#include "support/strings.hpp"

namespace roccc::rtl {

const char* cellKindName(CellKind k) {
  switch (k) {
    case CellKind::Const: return "const";
    case CellKind::Add: return "add";
    case CellKind::Sub: return "sub";
    case CellKind::Mul: return "mul";
    case CellKind::Neg: return "neg";
    case CellKind::And: return "and";
    case CellKind::Or: return "or";
    case CellKind::Xor: return "xor";
    case CellKind::Not: return "not";
    case CellKind::Shl: return "shl";
    case CellKind::Shr: return "shr";
    case CellKind::Eq: return "eq";
    case CellKind::Ne: return "ne";
    case CellKind::Lt: return "lt";
    case CellKind::Le: return "le";
    case CellKind::Gt: return "gt";
    case CellKind::Ge: return "ge";
    case CellKind::Mux: return "mux";
    case CellKind::Reg: return "reg";
    case CellKind::Rom: return "rom";
    case CellKind::Slice: return "slice";
    case CellKind::Concat: return "concat";
    case CellKind::Resize: return "resize";
  }
  return "?";
}

bool isSequential(CellKind k) { return k == CellKind::Reg; }

int Module::addNet(ScalarType t, std::string name) {
  Net n;
  n.id = static_cast<int>(nets.size());
  n.type = t;
  n.name = std::move(name);
  nets.push_back(std::move(n));
  return nets.back().id;
}

int Module::addCell(CellKind kind, std::vector<int> inputs, int output) {
  Cell c;
  c.id = static_cast<int>(cells.size());
  c.kind = kind;
  c.inputs = std::move(inputs);
  c.output = output;
  cells.push_back(std::move(c));
  if (output >= 0) nets[static_cast<size_t>(output)].driver = cells.back().id;
  return cells.back().id;
}

int Module::addConst(int64_t value, ScalarType t, const std::string& name) {
  const int net = addNet(t, name.empty() ? fmt("const_%0", value) : name);
  const int cell = addCell(CellKind::Const, {}, net);
  cells[static_cast<size_t>(cell)].imm = value;
  return net;
}

int Module::cellCount(CellKind k) const {
  int n = 0;
  for (const auto& c : cells) {
    if (c.kind == k) ++n;
  }
  return n;
}

int64_t Module::registerBits() const {
  int64_t bits = 0;
  for (const auto& c : cells) {
    if (c.kind == CellKind::Reg) bits += nets[static_cast<size_t>(c.output)].type.width;
  }
  return bits;
}

std::string Module::dump() const {
  std::ostringstream os;
  os << "module " << name << ": " << nets.size() << " nets, " << cells.size() << " cells, latency "
     << latency << "\n";
  for (size_t i = 0; i < inputPorts.size(); ++i) {
    os << "  in  " << inputNames[i] << " : " << nets[static_cast<size_t>(inputPorts[i])].type.str() << "\n";
  }
  for (size_t i = 0; i < outputPorts.size(); ++i) {
    os << "  out " << outputNames[i] << " : " << nets[static_cast<size_t>(outputPorts[i])].type.str() << "\n";
  }
  for (const auto& c : cells) {
    os << "  " << cellKindName(c.kind) << c.id;
    if (c.kind == CellKind::Const) os << "(" << c.imm << ")";
    os << " ->";
    if (c.output >= 0) os << " " << nets[static_cast<size_t>(c.output)].name << ":" << nets[static_cast<size_t>(c.output)].type.str();
    if (!c.inputs.empty()) {
      os << " <=";
      for (int in : c.inputs) os << ' ' << nets[static_cast<size_t>(in)].name;
    }
    os << "\n";
  }
  return os.str();
}

bool Module::verify(std::vector<std::string>& errors) const {
  const size_t before = errors.size();
  std::vector<int> driverCount(nets.size(), 0);
  for (const auto& c : cells) {
    if (c.output < 0 || c.output >= static_cast<int>(nets.size())) {
      errors.push_back(fmt("cell %0 has invalid output net", c.id));
      continue;
    }
    ++driverCount[static_cast<size_t>(c.output)];
    for (int in : c.inputs) {
      if (in < 0 || in >= static_cast<int>(nets.size())) {
        errors.push_back(fmt("cell %0 has invalid input net", c.id));
      }
    }
    const size_t want = [&]() -> size_t {
      switch (c.kind) {
        case CellKind::Const: return 0;
        case CellKind::Neg:
        case CellKind::Not:
        case CellKind::Rom:
        case CellKind::Slice:
        case CellKind::Resize:
          return 1;
        case CellKind::Reg:
          return c.inputs.size() == 2 ? 2 : 1; // optional clock-enable
        case CellKind::Mux: return 3;
        default: return 2;
      }
    }();
    if (c.inputs.size() != want) {
      errors.push_back(fmt("cell %0 (%1) has %2 inputs, expected %3", c.id, cellKindName(c.kind),
                           c.inputs.size(), want));
    }
    if (c.kind == CellKind::Rom && c.romData.empty()) {
      errors.push_back(fmt("rom cell %0 has no contents", c.id));
    }
  }
  std::vector<char> isInput(nets.size(), 0);
  for (int p : inputPorts) {
    if (nets[static_cast<size_t>(p)].driver != -1) {
      errors.push_back(fmt("input port net %0 has a driver", p));
    }
    isInput[static_cast<size_t>(p)] = 1;
  }
  for (size_t n = 0; n < nets.size(); ++n) {
    if (!isInput[n] && driverCount[n] == 0) {
      errors.push_back(fmt("net %0 (%1) is undriven", n, nets[n].name));
    }
    if (driverCount[n] > 1) {
      errors.push_back(fmt("net %0 (%1) has %2 drivers", n, nets[n].name, driverCount[n]));
    }
  }
  return errors.size() == before;
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

NetlistSim::NetlistSim(const Module& m) : m_(m) {
  values_.assign(m.nets.size(), Value());
  for (size_t n = 0; n < m.nets.size(); ++n) values_[n] = Value(m.nets[n].type, 0);

  // Topological order over combinational cells; Reg outputs are sources.
  std::vector<int> state(m.cells.size(), 0); // 0 unvisited, 1 visiting, 2 done
  std::function<void(int)> visit = [&](int cid) {
    if (state[static_cast<size_t>(cid)] == 2) return;
    if (state[static_cast<size_t>(cid)] == 1) {
      throw std::runtime_error("netlist has a combinational cycle through cell " +
                               std::to_string(cid));
    }
    state[static_cast<size_t>(cid)] = 1;
    const Cell& c = m.cells[static_cast<size_t>(cid)];
    if (!isSequential(c.kind)) {
      for (int in : c.inputs) {
        const int drv = m.nets[static_cast<size_t>(in)].driver;
        if (drv >= 0 && !isSequential(m.cells[static_cast<size_t>(drv)].kind)) visit(drv);
      }
      evalOrder_.push_back(cid);
    }
    state[static_cast<size_t>(cid)] = 2;
  };
  for (size_t cid = 0; cid < m.cells.size(); ++cid) {
    const Cell& c = m.cells[cid];
    if (isSequential(c.kind)) {
      latches_.push_back({c.inputs[0], c.inputs.size() == 2 ? c.inputs[1] : -1, c.output,
                          m.nets[static_cast<size_t>(c.output)].type, c.imm});
    } else {
      visit(static_cast<int>(cid));
    }
  }
  reset();
}

void NetlistSim::reset() {
  regState_.clear();
  for (const Latch& l : latches_) regState_.push_back(Value::fromInt(l.type, l.init));
}

void NetlistSim::setInput(size_t port, const Value& v) {
  const int net = m_.inputPorts.at(port);
  values_[static_cast<size_t>(net)] = v.convertTo(m_.nets[static_cast<size_t>(net)].type);
}

Value NetlistSim::evalCell(const Cell& c) const {
  const ScalarType rt = m_.nets[static_cast<size_t>(c.output)].type;
  auto in = [&](size_t k) { return values_[static_cast<size_t>(c.inputs[k])]; };
  switch (c.kind) {
    case CellKind::Const: return Value::fromInt(rt, c.imm);
    case CellKind::Add: return ops::add(in(0), in(1), rt);
    case CellKind::Sub: return ops::sub(in(0), in(1), rt);
    case CellKind::Mul: return ops::mul(in(0), in(1), rt);
    case CellKind::Neg: return ops::neg(in(0), rt);
    case CellKind::And: return ops::bitAnd(in(0), in(1), rt);
    case CellKind::Or: return ops::bitOr(in(0), in(1), rt);
    case CellKind::Xor: return ops::bitXor(in(0), in(1), rt);
    case CellKind::Not: return ops::bitNot(in(0), rt);
    case CellKind::Shl: return ops::shl(in(0), in(1), rt);
    case CellKind::Shr: return ops::shr(in(0), in(1), rt);
    case CellKind::Eq: return ops::cmpEq(in(0), in(1));
    case CellKind::Ne: return ops::cmpNe(in(0), in(1));
    case CellKind::Lt: return ops::cmpLt(in(0), in(1));
    case CellKind::Le: return ops::cmpLe(in(0), in(1));
    case CellKind::Gt: return ops::cmpGt(in(0), in(1));
    case CellKind::Ge: return ops::cmpGe(in(0), in(1));
    case CellKind::Mux: return ops::mux(in(0), in(1), in(2), rt);
    case CellKind::Rom: {
      const uint64_t idx = in(0).toUnsigned();
      const size_t n = c.romData.size();
      const size_t i = idx < n ? static_cast<size_t>(idx) : (n ? n - 1 : 0);
      return Value::fromInt(rt, c.romData[i]);
    }
    case CellKind::Slice: {
      const uint64_t raw = in(0).toUnsigned() >> c.aux1;
      return Value(rt, raw);
    }
    case CellKind::Concat: {
      const uint64_t hi = in(0).toUnsigned();
      const Value lo = in(1);
      return Value(rt, (hi << lo.width()) | lo.toUnsigned());
    }
    case CellKind::Resize: return in(0).convertTo(rt);
    case CellKind::Reg:
      throw InternalCompilerError(
          "netlist sim: Reg cell reached the combinational evaluator (registers "
          "are stepped by eval(), never folded)");
  }
  return Value(rt, 0);
}

void NetlistSim::eval() {
  // Register outputs first.
  for (size_t r = 0; r < latches_.size(); ++r) {
    values_[static_cast<size_t>(latches_[r].out)] = regState_[r];
  }
  for (int cid : evalOrder_) {
    const Cell& c = m_.cells[static_cast<size_t>(cid)];
    values_[static_cast<size_t>(c.output)] = evalCell(c);
  }
}

void NetlistSim::tick(bool enable) {
  if (!enable) return;
  for (size_t r = 0; r < latches_.size(); ++r) {
    const Latch& l = latches_[r];
    if (l.en >= 0 && !values_[static_cast<size_t>(l.en)].toBool()) {
      continue; // clock-enable input low: hold
    }
    regState_[r] = values_[static_cast<size_t>(l.d)].convertTo(l.type);
  }
}

Value NetlistSim::output(size_t port) const {
  return values_[static_cast<size_t>(m_.outputPorts.at(port))];
}

Value NetlistSim::netValue(int net) const { return values_[static_cast<size_t>(net)]; }

} // namespace roccc::rtl
