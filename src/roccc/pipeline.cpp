#include "roccc/pipeline.hpp"

#include <algorithm>
#include <new>
#include <sstream>

#include "roccc/compiler.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "synth/estimate.hpp"
#include "vhdl/check.hpp"
#include "vhdl/verilog.hpp"

namespace roccc {

const char* passLayerName(PassLayer layer) {
  switch (layer) {
    case PassLayer::Frontend: return "frontend";
    case PassLayer::Hlir: return "hlir";
    case PassLayer::Mir: return "mir";
    case PassLayer::Dp: return "dp";
    case PassLayer::Rtl: return "rtl";
    case PassLayer::Vhdl: return "vhdl";
  }
  return "?";
}

int64_t PassStatistics::counter(const std::string& key) const {
  for (const auto& [k, v] : counters) {
    if (k == key) return v;
  }
  return 0;
}

DiagEngine& PassContext::diags() { return result.diags; }

int64_t PassContext::irNodeCount() const {
  int64_t n = 0;
  // AST: one node per statement plus one per expression, across the whole
  // module (transforms like inlining grow functions other than the kernel).
  for (const auto& fn : module.functions) {
    if (!fn.body) continue;
    ast::forEachStmt(*fn.body, [&](const ast::Stmt&) { ++n; });
    ast::forEachExprInStmt(*fn.body, [&](const ast::Expr&) { ++n; });
  }
  for (const auto& b : result.mir.blocks) n += static_cast<int64_t>(b.instrs.size());
  n += static_cast<int64_t>(result.datapath.ops.size());
  n += static_cast<int64_t>(result.datapath.values.size());
  n += static_cast<int64_t>(result.module.cells.size());
  n += static_cast<int64_t>(result.module.nets.size());
  return n;
}

std::vector<std::string> PassManager::passNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& p : passes_) names.push_back(p.name);
  return names;
}

bool PassManager::wantsSnapshot(const std::string& passName) const {
  if (options_.printAfterAll) return true;
  return std::find(options_.printAfter.begin(), options_.printAfter.end(), passName) !=
         options_.printAfter.end();
}

std::string PassManager::snapshotOf(const Pass& p, PassContext& ctx) const {
  switch (p.layer) {
    case PassLayer::Frontend:
    case PassLayer::Hlir:
      return ast::printModule(ctx.module);
    case PassLayer::Mir:
      return ctx.result.mir.dump();
    case PassLayer::Dp:
      return ctx.result.datapath.dump();
    case PassLayer::Rtl:
      return ctx.result.module.dump();
    case PassLayer::Vhdl:
      return ctx.result.vhdl;
  }
  return {};
}

bool PassManager::verifyAfter(const Pass& p, PassContext& ctx) const {
  auto internal = [&](const std::string& what) {
    ctx.diags().error({}, fmt("internal: verifier failed after pass '%0': %1", p.name, what));
  };
  switch (p.layer) {
    case PassLayer::Frontend:
    case PassLayer::Hlir: {
      // Transforms re-run sema internally; the pipeline-level invariant is
      // that the kernel is still resolvable by name.
      if (!ctx.kernelName.empty() && ctx.kernel() == nullptr) {
        internal(fmt("kernel '%0' no longer exists in the module", ctx.kernelName));
        return false;
      }
      return true;
    }
    case PassLayer::Mir: {
      std::vector<std::string> errors;
      const bool ok = ctx.mirInSSA ? ctx.result.mir.verifySSA(errors)
                                   : ctx.result.mir.verify(errors);
      for (const auto& e : errors) internal(e);
      return ok;
    }
    case PassLayer::Dp: {
      // Structural sanity: every op's operands and result are valid values.
      const auto& dp = ctx.result.datapath;
      const int nValues = static_cast<int>(dp.values.size());
      for (const auto& op : dp.ops) {
        if (op.result >= nValues) {
          internal(fmt("datapath op result value %0 out of range", op.result));
          return false;
        }
        for (int v : op.operands) {
          if (v < 0 || v >= nValues) {
            internal(fmt("datapath op operand value %0 out of range", v));
            return false;
          }
        }
      }
      return true;
    }
    case PassLayer::Rtl: {
      std::vector<std::string> errors;
      const bool ok = ctx.result.module.verify(errors);
      for (const auto& e : errors) internal(e);
      return ok;
    }
    case PassLayer::Vhdl: {
      bool ok = true;
      if (!ctx.result.vhdl.empty()) {
        const auto chk = vhdl::checkDesign(ctx.result.vhdl);
        for (const auto& e : chk.problems) internal("vhdl: " + e);
        ok = chk.ok && ok;
      }
      if (!ctx.result.verilog.empty()) {
        const auto chk = verilog::checkDesign(ctx.result.verilog);
        for (const auto& e : chk.problems) internal("verilog: " + e);
        ok = chk.ok && ok;
      }
      return ok;
    }
  }
  return true;
}

bool PassManager::run(PassContext& ctx, std::vector<PassStatistics>& stats) const {
  // The fault-containment boundary: every exception a pass (or a budget
  // checkpoint, or a verifier) can raise is caught at this edge and turned
  // into a structured CompileResult outcome naming the failing pass. A job
  // can fail; the process — and every sibling job in a batch — survives.
  for (const Pass& p : passes_) {
    PassStatistics st;
    st.name = p.name;
    st.layer = p.layer;
    if (!p.enabled) {
      stats.push_back(std::move(st));
      continue;
    }
    st.ran = true;
    WallTimer timer;
    bool recorded = false; // st may already sit in `stats` when a verifier throws
    auto contain = [&](CompileOutcome outcome, std::string message) {
      if (!recorded) {
        st.wallMs = timer.elapsedMs();
        stats.push_back(std::move(st));
      }
      ctx.result.outcome = outcome;
      ctx.result.failedPass = p.name;
      ctx.diags().error({}, std::move(message));
    };
    try {
      if (ctx.budget) ctx.budget->checkDeadline(p.name.c_str());
      const bool ok = p.run(ctx, st);
      // The post-pass boundary checkpoint: the IR this pass grew is what
      // the next pass would have to chew through.
      if (ok && ctx.budget) {
        ctx.budget->checkpointPass(p.name.c_str(),
                                   ctx.budget->wantsIrNodeCount() ? ctx.irNodeCount() : 0);
      }
      st.wallMs = timer.elapsedMs();
      const bool failed = !ok || ctx.diags().hasErrors();
      if (!failed && wantsSnapshot(p.name)) st.snapshot = snapshotOf(p, ctx);
      stats.push_back(std::move(st));
      recorded = true;
      if (failed) {
        ctx.result.outcome = CompileOutcome::FrontendError;
        ctx.result.failedPass = p.name;
        return false;
      }
      if ((options_.verifyEach || p.alwaysVerify) && !verifyAfter(p, ctx)) {
        ctx.result.outcome = CompileOutcome::InternalError;
        ctx.result.failedPass = p.name;
        return false;
      }
    } catch (const BudgetExceeded& e) {
      contain(e.kind() == BudgetKind::Deadline ? CompileOutcome::Timeout
                                               : CompileOutcome::ResourceExceeded,
              fmt("pass '%0': %1", p.name, e.what()));
      return false;
    } catch (const std::bad_alloc&) {
      contain(CompileOutcome::ResourceExceeded, fmt("pass '%0': out of memory", p.name));
      return false;
    } catch (const std::exception& e) {
      contain(CompileOutcome::InternalError, fmt("internal error in pass '%0': %1", p.name, e.what()));
      return false;
    } catch (...) {
      contain(CompileOutcome::InternalError, fmt("internal error in pass '%0': unknown exception", p.name));
      return false;
    }
  }
  return true;
}

json::Value statsToJson(const std::vector<PassStatistics>& stats, json::Value timing) {
  using json::Value;
  Value passes = Value::array();
  double totalMs = 0;
  for (const auto& s : stats) {
    totalMs += s.wallMs;
    Value counters = Value::object();
    for (const auto& [key, value] : s.counters) counters.set(key, value);
    passes.push(Value::object({{"name", s.name}, {"layer", passLayerName(s.layer)},
                               {"wallMs", s.wallMs}, {"ran", s.ran},
                               {"counters", std::move(counters)}}));
  }
  Value doc = Value::object({{"passes", std::move(passes)}});
  if (!timing.isNull()) doc.set("timing", std::move(timing));
  doc.set("totalMs", totalMs);
  return doc;
}

json::Value timingToJson(const CompileResult& r, double targetNs, const synth::Report& est) {
  using json::Value;
  const auto& rt = r.datapath.timing;
  Value energy = Value::object({{"dynamicPjPerCycle", est.dynamicPjPerCycle},
                                {"leakageMw", est.leakageMw}, {"edpPjNs", est.edpPjNs()}});
  return Value::object({{"targetNs", targetNs}, {"stages", r.datapath.stageCount},
                        {"worstStageNs", rt.worstStageNs}, {"criticalPathNs", est.criticalPathNs},
                        {"fmaxMHz", est.fmaxMHz()}, {"slackNs", rt.slackNs},
                        {"feasible", rt.feasible}, {"energy", std::move(energy)}});
}

std::string statsToTable(const std::vector<PassStatistics>& stats) {
  std::ostringstream os;
  double totalMs = 0;
  for (const auto& s : stats) totalMs += s.wallMs;
  char head[128];
  std::snprintf(head, sizeof head, "  %-9s %-20s %10s  %s\n", "layer", "pass", "wall", "counters");
  os << "=== pass timing (total " << formatMs(totalMs) << ") ===\n" << head;
  for (const auto& s : stats) {
    char row[160];
    std::snprintf(row, sizeof row, "  %-9s %-20s %10s  ", passLayerName(s.layer), s.name.c_str(),
                  s.ran ? formatMs(s.wallMs).c_str() : "(skipped)");
    os << row;
    for (size_t c = 0; c < s.counters.size(); ++c) {
      if (c) os << ' ';
      os << s.counters[c].first << '=' << s.counters[c].second;
    }
    os << '\n';
  }
  return os.str();
}

} // namespace roccc
