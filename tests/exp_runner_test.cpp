// The parallel experiment runner's determinism contract: for any OASIS_JOBS
// value, RunParallel must produce bit-identical results, aggregates, and
// merged global observability compared with the serial (jobs=1) legacy path.
// These tests run real simulations on several workers, so they double as the
// TSan exercise for the run-local RunContext isolation.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <vector>

#include "src/exp/exp.h"
#include "src/exp/thread_pool.h"
#include "src/fault/fault.h"
#include "src/obs/metrics.h"
#include "src/obs/run_context.h"
#include "src/obs/trace.h"

namespace oasis {
namespace {

// Small enough for unit-test latency, big enough to exercise migrations,
// sleeps, and the consolidation policy.
SimulationConfig SmallCluster(uint64_t seed = 1234,
                              ConsolidationPolicy policy = ConsolidationPolicy::kFullToPartial) {
  SimulationConfig config;
  config.cluster.num_home_hosts = 6;
  config.cluster.num_consolidation_hosts = 2;
  config.cluster.vms_per_home = 8;
  config.cluster.policy = policy;
  config.seed = seed;
  return config;
}

void ExpectSameMetrics(const ClusterMetrics& a, const ClusterMetrics& b) {
  // Exact equality on purpose: the contract is bit-identical, not close.
  EXPECT_EQ(a.TotalEnergy(), b.TotalEnergy());
  EXPECT_EQ(a.baseline_energy, b.baseline_energy);
  EXPECT_EQ(a.EnergySavings(), b.EnergySavings());
  EXPECT_EQ(a.full_migrations, b.full_migrations);
  EXPECT_EQ(a.partial_migrations, b.partial_migrations);
  EXPECT_EQ(a.reintegrations, b.reintegrations);
  EXPECT_EQ(a.host_sleeps, b.host_sleeps);
  EXPECT_EQ(a.host_wakes, b.host_wakes);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.transition_delay_s.count(), b.transition_delay_s.count());
}

TEST(ExperimentPlanTest, AddAssignsSequentialIndices) {
  exp::ExperimentPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.Add(SmallCluster(1)), 0u);
  EXPECT_EQ(plan.Add(SmallCluster(2)), 1u);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.runs()[0].config.seed, 1u);
  EXPECT_EQ(plan.runs()[1].config.seed, 2u);
  EXPECT_EQ(plan.runs()[1].index, 1u);
}

TEST(ExperimentPlanTest, AddRepetitionsDerivesSeedsAtPlanBuildTime) {
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(7));
  exp::RepetitionSpan span = plan.AddRepetitions(SmallCluster(100), 3);
  EXPECT_EQ(span.first, 1u);
  EXPECT_EQ(span.count, 3);
  ASSERT_EQ(plan.size(), 4u);
  for (int rep = 0; rep < 3; ++rep) {
    const exp::PlannedRun& run = plan.runs()[span.first + rep];
    EXPECT_EQ(run.repetition, rep);
    EXPECT_EQ(run.config.seed, exp::ExperimentPlan::DeriveSeed(100, rep));
  }
  // The golden-ratio stride produces distinct streams.
  EXPECT_NE(exp::ExperimentPlan::DeriveSeed(100, 1), exp::ExperimentPlan::DeriveSeed(100, 2));
  EXPECT_EQ(exp::ExperimentPlan::DeriveSeed(100, 0), 100u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  exp::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 500);
  // The pool stays usable after a Wait().
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 600);
}

TEST(ExpRunnerTest, ParallelResultsMatchSerialBitForBit) {
  // A quickstart-style mixed plan: different seeds, policies, and a
  // repetition group, all in one plan.
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(11));
  plan.Add(SmallCluster(22, ConsolidationPolicy::kDefault));
  plan.AddRepetitions(SmallCluster(33), 3);

  std::vector<SimulationResult> serial = exp::RunParallel(plan, 1);
  std::vector<SimulationResult> parallel = exp::RunParallel(plan, 4);
  ASSERT_EQ(serial.size(), plan.size());
  ASSERT_EQ(parallel.size(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameMetrics(serial[i].metrics, parallel[i].metrics);
  }
}

TEST(ExpRunnerTest, CollectRepeatedMatchesLegacyRunRepeated) {
  // exp::RunRepeated on N workers must reproduce oasis::RunRepeated's
  // aggregates exactly, including the floating-point reduction order.
  SimulationConfig config = SmallCluster(2016);
  RepeatedRunResult legacy = oasis::RunRepeated(config, 4);
  RepeatedRunResult parallel = exp::RunRepeated(config, 4, 4);

  EXPECT_EQ(parallel.savings.count(), legacy.savings.count());
  EXPECT_EQ(parallel.savings.mean(), legacy.savings.mean());
  EXPECT_EQ(parallel.savings.stddev(), legacy.savings.stddev());
  EXPECT_EQ(parallel.total_energy_kwh.mean(), legacy.total_energy_kwh.mean());
  EXPECT_EQ(parallel.total_energy_kwh.min(), legacy.total_energy_kwh.min());
  EXPECT_EQ(parallel.total_energy_kwh.max(), legacy.total_energy_kwh.max());
  EXPECT_EQ(parallel.baseline_energy_kwh.mean(), legacy.baseline_energy_kwh.mean());
  ASSERT_EQ(parallel.runs.size(), legacy.runs.size());
  for (size_t i = 0; i < legacy.runs.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameMetrics(parallel.runs[i].metrics, legacy.runs[i].metrics);
  }
}

TEST(ExpRunnerTest, MergedGlobalObsMatchesSerialExecution) {
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  metrics.ResetValues();
  metrics.set_enabled(true);

  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(5));
  plan.AddRepetitions(SmallCluster(6), 2);

  (void)exp::RunParallel(plan, 1);
  std::vector<obs::TraceEvent> serial_events = tracer.Events();
  uint64_t serial_total = tracer.total_recorded();
  uint64_t serial_dropped = tracer.dropped();
  std::vector<obs::MetricRow> serial_rows = metrics.Snapshot();
  std::ostringstream serial_csv;
  metrics.WriteCsv(serial_csv);

  tracer.Clear();
  metrics.ResetValues();
  (void)exp::RunParallel(plan, 4);

  // The run-local rings merge in plan order, so the retained suffix, the
  // total, and the drop count all match the serial run.
  EXPECT_EQ(tracer.total_recorded(), serial_total);
  EXPECT_EQ(tracer.dropped(), serial_dropped);
  std::vector<obs::TraceEvent> parallel_events = tracer.Events();
  ASSERT_EQ(parallel_events.size(), serial_events.size());
  for (size_t i = 0; i < serial_events.size(); ++i) {
    EXPECT_EQ(parallel_events[i].ts_us, serial_events[i].ts_us) << "event " << i;
    EXPECT_STREQ(parallel_events[i].name, serial_events[i].name) << "event " << i;
  }

  std::vector<obs::MetricRow> parallel_rows = metrics.Snapshot();
  ASSERT_EQ(parallel_rows.size(), serial_rows.size());
  for (size_t i = 0; i < serial_rows.size(); ++i) {
    EXPECT_EQ(parallel_rows[i].name, serial_rows[i].name);
    EXPECT_EQ(parallel_rows[i].count, serial_rows[i].count) << serial_rows[i].name;
    // Histogram sums fold per-run before merging, so the mean may move by a
    // few ULPs vs serial; the exported CSV (6 significant digits) is the
    // byte-identical artifact and is compared below.
    EXPECT_NEAR(parallel_rows[i].value, serial_rows[i].value,
                1e-9 * (1.0 + std::abs(serial_rows[i].value)))
        << serial_rows[i].name;
  }
  std::ostringstream parallel_csv;
  metrics.WriteCsv(parallel_csv);
  EXPECT_EQ(parallel_csv.str(), serial_csv.str());

  tracer.set_enabled(false);
  tracer.Clear();
  metrics.set_enabled(false);
  metrics.ResetValues();
}

TEST(ExpRunnerTest, WorkerThreadsLeaveNoContextInstalled) {
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(9));
  plan.Add(SmallCluster(10));
  (void)exp::RunParallel(plan, 2);
  // The calling thread never had a context; the workers' Scopes must have
  // unwound before RunParallel returned.
  EXPECT_EQ(obs::RunContext::Current(), nullptr);
}

TEST(ExpRunnerTest, FaultInjectionIsRunLocalAndDeterministic) {
  // Chaos runs executing concurrently must not bleed injections into each
  // other: per-class counters must match the serial execution exactly.
  SimulationConfig config = SmallCluster(77);
  config.cluster.fault = FaultConfig::ChaosDay();
  exp::ExperimentPlan plan;
  plan.AddRepetitions(config, 3);

  std::vector<SimulationResult> serial = exp::RunParallel(plan, 1);
  std::vector<SimulationResult> parallel = exp::RunParallel(plan, 3);
  ASSERT_EQ(parallel.size(), serial.size());
  uint64_t total_injected = 0;
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameMetrics(serial[i].metrics, parallel[i].metrics);
    for (size_t c = 0; c < kNumFaultClasses; ++c) {
      EXPECT_EQ(parallel[i].metrics.fault_injected_by_class[c],
                serial[i].metrics.fault_injected_by_class[c]);
      EXPECT_EQ(parallel[i].metrics.fault_recovered_by_class[c],
                serial[i].metrics.fault_recovered_by_class[c]);
      total_injected += serial[i].metrics.fault_injected_by_class[c];
    }
  }
  EXPECT_GT(total_injected, 0u) << "chaos day injected nothing; test is vacuous";
}

}  // namespace
}  // namespace oasis
