// Tests for the thread-pooled batch compilation driver: ThreadPool
// semantics, CompileService job/result contracts, and the determinism
// guarantee — a batch compiled on 1 worker and on 8 workers must produce
// byte-identical VHDL/Verilog, identical PassStatistics change counters,
// and identical per-job diagnostics sequences. Wall-clock fields
// (PassStatistics::wallMs, BatchResult::wallMs) are the only sanctioned
// difference between runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "../bench/kernels.hpp"
#include "roccc/driver.hpp"
#include "support/threadpool.hpp"

namespace roccc {
namespace {

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workerCount(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.workerCount(), 1u);
}

TEST(ThreadPool, BoundedQueueBackpressureStillCompletesEverything) {
  // 2 workers, queue bound 2: submits beyond the bound block the producer
  // until a worker frees a slot; every job must still run exactly once.
  ThreadPool pool(2, 2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, WaitIdleDrainsTheQueue) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    });
  }
  pool.waitIdle();
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, JobExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives the throwing job.
  auto ok = pool.submit([] {});
  ok.get();
}

TEST(ThreadPool, EveryWorkerSurvivesRepeatedThrowingJobs) {
  // 200 jobs, half of them throwing, on 4 workers: each worker is
  // statistically guaranteed to hit many exceptions, and all 100 clean jobs
  // must still complete — no worker dies or wedges after a throw.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&ran, i] {
      if (i % 2 == 0) throw std::runtime_error("planned failure");
      ran.fetch_add(1);
    }));
  }
  int threw = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const std::runtime_error&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw, 100);
  EXPECT_EQ(ran.load(), 100);
  // The pool is still fully operational afterwards.
  std::atomic<int> after{0};
  std::vector<std::future<void>> more;
  for (int i = 0; i < 20; ++i) more.push_back(pool.submit([&after] { after.fetch_add(1); }));
  for (auto& f : more) f.get();
  EXPECT_EQ(after.load(), 20);
}

TEST(ThreadPool, DestructorJoinsAfterPendingJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    pool.waitIdle();
  }
  EXPECT_EQ(ran.load(), 10);
}

// --- CompileService ---------------------------------------------------------

std::vector<CompileJob> table1Jobs() {
  std::vector<CompileJob> jobs;
  for (const auto& k : bench::kTable1Kernels) {
    CompileOptions o;
    if (k.targetStageDelayNs > 0) o.dpOptions.targetStageDelayNs = k.targetStageDelayNs;
    jobs.push_back({k.name, k.source, o});
  }
  return jobs;
}

TEST(CompileService, EmptyBatch) {
  const CompileService service(4);
  const BatchResult batch = service.compileBatch({});
  EXPECT_TRUE(batch.results.empty());
  EXPECT_TRUE(batch.allOk());
  EXPECT_EQ(batch.succeeded(), 0);
}

TEST(CompileService, ZeroWorkersPicksHardwareConcurrency) {
  const CompileService service(0);
  EXPECT_GE(service.workers(), 1);
}

TEST(CompileService, ResultsArriveInJobOrder) {
  const auto jobs = table1Jobs();
  const CompileService service(8);
  const BatchResult batch = service.compileBatch(jobs);
  ASSERT_EQ(batch.results.size(), jobs.size());
  EXPECT_TRUE(batch.allOk());
  EXPECT_EQ(batch.workers, 8);
  // Slot i holds job i's kernel, regardless of which worker finished first.
  // The job name is the kernel name except for the mul_acc variants, whose
  // C function is 'mul_acc' in both styles.
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::string expect = jobs[i].name;
    if (expect == "mul_acc_predicated") expect = "mul_acc";
    if (expect == "cos") expect = "cos_kernel";
    EXPECT_EQ(batch.results[i].kernel.kernelName, expect) << "slot " << i;
  }
}

TEST(CompileService, FailingJobIsIsolatedToItsSlot) {
  std::vector<CompileJob> jobs = table1Jobs();
  CompileJob broken;
  broken.name = "broken";
  broken.source = "void k(const int8 A[8], int8 C[4]) { this is not C ; }";
  jobs.insert(jobs.begin() + 3, broken);

  const CompileService service(8);
  const BatchResult batch = service.compileBatch(jobs);
  ASSERT_EQ(batch.results.size(), jobs.size());
  EXPECT_FALSE(batch.allOk());
  EXPECT_EQ(batch.succeeded(), static_cast<int>(jobs.size()) - 1);
  EXPECT_FALSE(batch.results[3].ok);
  EXPECT_TRUE(batch.results[3].diags.hasErrors());
  // Neighbours are untouched: their own DiagEngine carries no errors.
  for (size_t i = 0; i < batch.results.size(); ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(batch.results[i].ok) << "slot " << i;
    EXPECT_FALSE(batch.results[i].diags.hasErrors()) << "slot " << i;
  }
}

// --- determinism guarantee --------------------------------------------------

/// Everything in a PassStatistics record except wall time (and snapshots,
/// which the batch driver never requests) must be run-invariant.
void expectSamePassLog(const std::vector<PassStatistics>& a, const std::vector<PassStatistics>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].name, b[p].name) << label << " pass " << p;
    EXPECT_EQ(a[p].layer, b[p].layer) << label << " pass " << p;
    EXPECT_EQ(a[p].ran, b[p].ran) << label << " pass " << p;
    EXPECT_EQ(a[p].counters, b[p].counters) << label << " pass " << a[p].name;
  }
}

void expectSameDiagnostics(const DiagEngine& a, const DiagEngine& b, const std::string& label) {
  ASSERT_EQ(a.all().size(), b.all().size()) << label;
  for (size_t d = 0; d < a.all().size(); ++d) {
    EXPECT_EQ(a.all()[d].severity, b.all()[d].severity) << label << " diag " << d;
    EXPECT_EQ(a.all()[d].loc, b.all()[d].loc) << label << " diag " << d;
    EXPECT_EQ(a.all()[d].message, b.all()[d].message) << label << " diag " << d;
  }
}

TEST(CompileServiceDeterminism, OneWorkerAndEightWorkersAreByteIdentical) {
  std::vector<CompileJob> jobs = table1Jobs();
  // A job that emits a warning: diagnostics *ordering within a job* is part
  // of the guarantee, so at least one job must carry more than zero diags.
  CompileJob warning;
  warning.name = "warns";
  warning.source = "void k(const int8 A[12], int16 C[8], int16* unused) {\n"
                   "  int i;\n"
                   "  for (i = 0; i < 8; i++) { C[i] = A[i] + A[i+4]; }\n"
                   "}\n";
  jobs.push_back(warning);
  // And a failing job: error diagnostics must be identical too.
  CompileJob broken;
  broken.name = "broken";
  broken.source = "void k(const int8 A[8], int8 C[4]) { }";
  jobs.push_back(broken);
  // Both emitters' bytes are part of the guarantee.
  for (CompileJob& job : jobs) job.options.emitVerilog = true;

  const BatchResult serial = CompileService(1).compileBatch(jobs);
  const BatchResult parallel = CompileService(8).compileBatch(jobs);
  ASSERT_EQ(serial.results.size(), parallel.results.size());

  bool sawWarning = false;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const CompileResult& s = serial.results[i];
    const CompileResult& p = parallel.results[i];
    EXPECT_EQ(s.ok, p.ok) << jobs[i].name;
    EXPECT_EQ(s.vhdl, p.vhdl) << jobs[i].name;          // byte-identical VHDL
    EXPECT_EQ(s.verilog, p.verilog) << jobs[i].name;    // byte-identical Verilog
    EXPECT_EQ(s.verilog.empty(), !s.ok) << jobs[i].name;
    expectSamePassLog(s.passLog, p.passLog, jobs[i].name);
    expectSameDiagnostics(s.diags, p.diags, jobs[i].name);
    for (const auto& d : s.diags.all()) sawWarning |= d.severity == Severity::Warning;
  }
  EXPECT_TRUE(sawWarning) << "the 'warns' job was supposed to exercise diag ordering";
  EXPECT_FALSE(serial.results.back().ok);
}

TEST(CompileServiceDeterminism, RepeatedParallelBatchesAgreeWithEachOther) {
  const auto jobs = table1Jobs();
  const CompileService service(8);
  const BatchResult first = service.compileBatch(jobs);
  ASSERT_TRUE(first.allOk());
  for (int round = 0; round < 3; ++round) {
    const BatchResult again = service.compileBatch(jobs);
    ASSERT_TRUE(again.allOk());
    for (size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_EQ(first.results[i].vhdl, again.results[i].vhdl)
          << jobs[i].name << " round " << round;
    }
  }
}

TEST(CompileServiceDeterminism, ConcurrentCompilesOfTheSameSourceAreReentrant) {
  // 16 copies of the same job racing on 8 workers: any hidden global in
  // the pipeline (string interner, name counter, shared cache) would make
  // some slot diverge. TSan (the build-tsan preset) checks the memory
  // model side of the same property.
  const CompileJob dctJob{"dct", bench::kDct, {}};
  std::vector<CompileJob> jobs(16, dctJob);
  const BatchResult batch = CompileService(8).compileBatch(jobs);
  ASSERT_TRUE(batch.allOk());
  for (size_t i = 1; i < jobs.size(); ++i) {
    ASSERT_EQ(batch.results[0].vhdl, batch.results[i].vhdl) << "slot " << i;
    expectSamePassLog(batch.results[0].passLog, batch.results[i].passLog,
                      "slot " + std::to_string(i));
  }
}

} // namespace
} // namespace roccc
