// The fault-containment contract, exercised from both ends:
//
//  - the fault-injection sweep arms every entry of faultPointRegistry() in
//    turn and asserts that the process survives, the job reports
//    CompileOutcome::InternalError naming the expected pass, and sibling
//    jobs in an 8-worker batch stay byte-identical to a clean run;
//  - the budget tests drive each CompileBudget limit (deadline, IR nodes,
//    unroll product, nesting depth) to its violation and assert the
//    structured Timeout / ResourceExceeded classification.
//
// The nightly all-kernel sweep (ROCCC_FAULT_SWEEP_ALL=1) repeats the
// injection for every fault point across the full nine-kernel Table 1
// batch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "../bench/kernels.hpp"
#include "roccc/driver.hpp"
#include "support/budget.hpp"
#include "support/faultpoint.hpp"

namespace roccc {
namespace {

/// Table 1 with Verilog requested, so every emitter (and the
/// `verilog.emit` fault point) runs.
std::vector<CompileJob> table1Jobs() {
  std::vector<CompileJob> jobs;
  for (const auto& k : bench::kTable1Kernels) {
    CompileOptions o;
    if (k.targetStageDelayNs > 0) o.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    o.emitVerilog = true;
    jobs.push_back({k.name, k.source, o});
  }
  return jobs;
}

// --- the registry -----------------------------------------------------------

TEST(FaultInjection, RegistryNamesAreUniqueAndNonEmpty) {
  const auto& reg = faultPointRegistry();
  ASSERT_FALSE(reg.empty());
  std::set<std::string> names;
  for (const auto& fp : reg) {
    ASSERT_NE(fp.name, nullptr);
    ASSERT_NE(fp.pass, nullptr);
    EXPECT_FALSE(std::string(fp.name).empty());
    EXPECT_TRUE(names.insert(fp.name).second) << "duplicate fault point " << fp.name;
  }
}

TEST(FaultInjection, DisarmedHookIsInert) {
  EXPECT_FALSE(faultInjectionArmed());
  faultpoint("dp.build"); // must not throw
  const FaultInjectionScope none("");
  EXPECT_FALSE(faultInjectionArmed());
  faultpoint("dp.build");
}

TEST(FaultInjection, ScopeArmsExactlyOnePointAndNests) {
  const FaultInjectionScope outer("dp.build");
  EXPECT_TRUE(faultInjectionArmed());
  faultpoint("rtl.elaborate"); // different point: inert
  EXPECT_THROW(faultpoint("dp.build"), FaultInjected);
  {
    const FaultInjectionScope inner("mir.ssa");
    faultpoint("dp.build"); // outer arming is shadowed
    EXPECT_THROW(faultpoint("mir.ssa"), FaultInjected);
  }
  EXPECT_THROW(faultpoint("dp.build"), FaultInjected); // restored
}

// --- the sweep: every point, one kernel -------------------------------------

TEST(FaultInjection, EveryRegisteredPointIsContained) {
  for (const auto& fp : faultPointRegistry()) {
    CompileOptions o;
    o.injectFaultAt = fp.name;
    o.emitVerilog = true; // reaches verilog.emit
    if (std::string(fp.pass).empty()) {
      // Points outside the PassManager ("driver.job") only fire under the
      // batch driver.
      const BatchResult batch = CompileService(1).compileBatch({{"fir", bench::kFir, o}});
      ASSERT_EQ(batch.results.size(), 1u);
      EXPECT_FALSE(batch.results[0].ok) << fp.name;
      EXPECT_EQ(batch.results[0].outcome, CompileOutcome::InternalError) << fp.name;
      EXPECT_TRUE(batch.results[0].diags.hasErrors()) << fp.name;
      continue;
    }
    const Compiler compiler(o);
    const CompileResult r = compiler.compileSource(bench::kFir);
    EXPECT_FALSE(r.ok) << fp.name;
    EXPECT_EQ(r.outcome, CompileOutcome::InternalError) << fp.name;
    EXPECT_EQ(r.failedPass, fp.pass) << fp.name;
    bool mentionsInjection = false;
    for (const auto& d : r.diags.all()) {
      mentionsInjection |= d.message.find("injected fault") != std::string::npos;
    }
    EXPECT_TRUE(mentionsInjection) << fp.name;
  }
}

// --- sibling isolation under an 8-worker batch ------------------------------

TEST(FaultInjection, ArmedJobLeavesSiblingsByteIdentical) {
  const std::vector<CompileJob> clean = table1Jobs();
  const CompileService service(8);
  const BatchResult reference = service.compileBatch(clean);
  ASSERT_TRUE(reference.allOk());

  std::vector<CompileJob> armed = clean;
  armed[3].options.injectFaultAt = "dp.build";
  const BatchResult faulted = service.compileBatch(armed);
  ASSERT_EQ(faulted.results.size(), reference.results.size());

  EXPECT_FALSE(faulted.results[3].ok);
  EXPECT_EQ(faulted.results[3].outcome, CompileOutcome::InternalError);
  EXPECT_EQ(faulted.results[3].failedPass, "build-datapath");
  for (size_t i = 0; i < faulted.results.size(); ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(faulted.results[i].ok) << "slot " << i;
    EXPECT_EQ(faulted.results[i].vhdl, reference.results[i].vhdl) << "slot " << i;
    EXPECT_EQ(faulted.results[i].verilog, reference.results[i].verilog) << "slot " << i;
  }
  EXPECT_EQ(faulted.countOutcome(CompileOutcome::InternalError), 1);
  EXPECT_EQ(faulted.countOutcome(CompileOutcome::Ok),
            static_cast<int>(faulted.results.size()) - 1);
}

TEST(FaultInjection, WorkersSurviveABatchWhereEveryJobThrows) {
  std::vector<CompileJob> jobs = table1Jobs();
  for (auto& j : jobs) j.options.injectFaultAt = "driver.job";
  const BatchResult batch = CompileService(8).compileBatch(jobs);
  ASSERT_EQ(batch.results.size(), jobs.size());
  EXPECT_EQ(batch.countOutcome(CompileOutcome::InternalError),
            static_cast<int>(jobs.size()));
  EXPECT_EQ(batch.outcomeSummary(), "9 internal-error");
  // The same service still compiles a clean batch afterwards: no worker
  // was wedged by the throwing jobs.
  const BatchResult after = CompileService(8).compileBatch(table1Jobs());
  EXPECT_TRUE(after.allOk());
}

// --- nightly: every point x every Table 1 kernel ----------------------------

TEST(FaultInjectionNightly, SweepAllPointsAcrossTheFullBatch) {
  if (std::getenv("ROCCC_FAULT_SWEEP_ALL") == nullptr) {
    GTEST_SKIP() << "set ROCCC_FAULT_SWEEP_ALL=1 to run the full sweep";
  }
  const std::vector<CompileJob> clean = table1Jobs();
  const CompileService service(8);
  const BatchResult reference = service.compileBatch(clean);
  ASSERT_TRUE(reference.allOk());

  for (const auto& fp : faultPointRegistry()) {
    // Arm one job per round (rotating the slot with the point index) so
    // every kernel eventually hosts an injection while its siblings are
    // checked for byte-identity.
    for (size_t slot = 0; slot < clean.size(); ++slot) {
      std::vector<CompileJob> armed = clean;
      armed[slot].options.injectFaultAt = fp.name;
      const BatchResult faulted = service.compileBatch(armed);
      ASSERT_EQ(faulted.results.size(), clean.size()) << fp.name;
      EXPECT_FALSE(faulted.results[slot].ok) << fp.name << " slot " << slot;
      EXPECT_EQ(faulted.results[slot].outcome, CompileOutcome::InternalError)
          << fp.name << " slot " << slot;
      for (size_t i = 0; i < faulted.results.size(); ++i) {
        if (i == slot) continue;
        ASSERT_EQ(faulted.results[i].vhdl, reference.results[i].vhdl)
            << fp.name << " sibling " << i << " of armed slot " << slot;
      }
    }
  }
}

// --- budgets ----------------------------------------------------------------

TEST(CompileBudget, ExpiredDeadlineIsATimeoutInTheFirstPass) {
  CompileOptions o;
  o.budget.timeoutMs = -1; // already expired: deterministic, no clock race
  const Compiler compiler(o);
  const CompileResult r = compiler.compileSource(bench::kFir);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.outcome, CompileOutcome::Timeout);
  EXPECT_EQ(r.failedPass, "parse");
}

TEST(CompileBudget, IrNodeBudgetIsResourceExceeded) {
  CompileOptions o;
  o.budget.maxIrNodes = 10;
  const Compiler compiler(o);
  const CompileResult r = compiler.compileSource(bench::kFir);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.outcome, CompileOutcome::ResourceExceeded);
  EXPECT_EQ(r.failedPass, "parse"); // the AST alone exceeds 10 nodes
}

TEST(CompileBudget, UnrollProductBudgetContainsExpansion) {
  CompileOptions o;
  o.unrollFactor = 4;
  o.budget.maxUnrollProduct = 2;
  const Compiler compiler(o);
  const CompileResult r = compiler.compileSource(bench::kFir);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.outcome, CompileOutcome::ResourceExceeded);
  EXPECT_EQ(r.failedPass, "unroll");
}

// The auto-unroll search compiles several designs under the job's one
// budget and fault arming: an expired deadline and an armed fault fail the
// job, and the unroll-product cap bounds each design, so the search stops
// at the last factor within it (fir's loop has 64 trips).
TEST(CompileBudget, AutoUnrollSearchRunsUnderTheJobsBudget) {
  CompileOptions o;
  o.autoUnrollSliceBudget = 1'000'000;
  o.budget.timeoutMs = -1;
  EXPECT_EQ(Compiler(o).compileSource(bench::kFir).outcome, CompileOutcome::Timeout);

  o.budget = {};
  o.injectFaultAt = "hlir.unroll";
  const CompileResult faulted = Compiler(o).compileSource(bench::kFir);
  EXPECT_EQ(faulted.outcome, CompileOutcome::InternalError);
  EXPECT_EQ(faulted.failedPass, "unroll");

  o.injectFaultAt.clear();
  o.budget.maxUnrollProduct = 8;
  const CompileResult r = Compiler(o).compileSource(bench::kFir);
  ASSERT_TRUE(r.ok) << r.diags.dump();
  int64_t factor = 0;
  for (const PassStatistics& p : r.passLog) {
    if (p.name == "unroll") factor = p.counter("unroll-factor");
  }
  EXPECT_EQ(factor, 8);
}

TEST(CompileBudget, DepthCapContainsPathologicalNesting) {
  std::string deep = "void k(const int A[4], int B[4]) {\n  int i;\n"
                     "  for (i = 0; i < 4; i = i + 1) { B[i] = ";
  for (int i = 0; i < 400; ++i) deep += '(';
  deep += "A[i]";
  for (int i = 0; i < 400; ++i) deep += ')';
  deep += "; }\n}\n";
  const Compiler compiler(CompileOptions{});
  const CompileResult r = compiler.compileSource(deep);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.outcome, CompileOutcome::ResourceExceeded);
  EXPECT_EQ(r.failedPass, "parse");
}

TEST(CompileBudget, GenerousBudgetLeavesOutputByteIdentical) {
  // Armed-but-untriggered governance must not perturb the output: this is
  // the determinism side of the <1% overhead claim in EXPERIMENTS.md.
  CompileOptions o;
  o.emitVerilog = true;
  const CompileResult base = Compiler(o).compileSource(bench::kFir);
  ASSERT_TRUE(base.ok);

  o.budget.timeoutMs = 60'000;
  o.budget.maxIrNodes = 10'000'000;
  o.budget.maxUnrollProduct = 1'000'000;
  o.budget.maxDepth = 256;
  const Compiler governed(o);
  const CompileResult r = governed.compileSource(bench::kFir);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.vhdl, base.vhdl);
  EXPECT_EQ(r.verilog, base.verilog);
}

TEST(CompileBudget, ChargeUnrollSaturatesInsteadOfOverflowing) {
  CompileBudget b({});
  // Unlimited budget: repeated huge charges must neither throw nor wrap
  // into a negative product.
  for (int i = 0; i < 64; ++i) b.chargeUnroll(1'000'000'000, "test");
  EXPECT_GT(b.unrollProduct(), 0);
}

TEST(CompileBudget, ExceptionCarriesKindWhereAndMagnitudes) {
  BudgetLimits lim;
  lim.maxUnrollProduct = 8;
  CompileBudget b(lim);
  try {
    b.chargeUnroll(16, "here");
    FAIL() << "chargeUnroll should have thrown";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::UnrollProduct);
    EXPECT_EQ(e.where(), "here");
    EXPECT_EQ(e.observed(), 16);
    EXPECT_EQ(e.limit(), 8);
  }
}

TEST(CompileBudget, OutcomeNamesAreStable) {
  EXPECT_STREQ(compileOutcomeName(CompileOutcome::Ok), "ok");
  EXPECT_STREQ(compileOutcomeName(CompileOutcome::FrontendError), "frontend-error");
  EXPECT_STREQ(compileOutcomeName(CompileOutcome::Timeout), "timeout");
  EXPECT_STREQ(compileOutcomeName(CompileOutcome::ResourceExceeded), "resource-exceeded");
  EXPECT_STREQ(compileOutcomeName(CompileOutcome::InternalError), "internal-error");
}

} // namespace
} // namespace roccc
