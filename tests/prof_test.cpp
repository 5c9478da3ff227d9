// The wall-clock profiler's contract: percentile math is honest within the
// log-linear bucket error, profiling provably never perturbs simulation
// results, the per-thread buffers survive a real parallel run at jobs=4
// with a self-consistent report, the share column never exceeds 100%, and
// the check.walk layer times every invariant walk and nothing else.

#include "src/obs/prof.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/check/check.h"
#include "src/exp/exp.h"
#include "src/obs/metrics.h"
#include "tests/metric_digest.h"

namespace oasis {
namespace prof {
namespace {

// Small enough for unit-test latency, big enough to run real migrations
// through the pool workers.
SimulationConfig SmallCluster(uint64_t seed = 1234) {
  SimulationConfig config;
  config.cluster.num_home_hosts = 6;
  config.cluster.num_consolidation_hosts = 2;
  config.cluster.vms_per_home = 8;
  config.seed = seed;
  return config;
}

// Zeroes profiler state around tests that enable it, so test order cannot
// leak samples between cases.
class ProfilerGuard {
 public:
  ProfilerGuard() { Profiler::Instance().Reset(); }
  ~ProfilerGuard() {
    Profiler::Instance().SetMode(ProfMode::kOff);
    Profiler::Instance().Reset();
  }
};

// --- percentile correctness (table-driven) ----------------------------------

TEST(ProfHistogramTest, PercentileTableWithinLogLinearError) {
  // The report's p50/p95/p99 come from obs::Histogram's log-linear buckets
  // (16 sub-buckets per power of two => <= ~6.5% relative error). Each case
  // records a known distribution of durations-in-seconds at profiler scale
  // (hundreds of nanoseconds to minutes) and pins the quantiles.
  struct Case {
    const char* name;
    std::vector<double> values;  // recorded in order given
    double pct;
    double expected;
  };
  const Case cases[] = {
      {"uniform_1us_to_1ms_p50", {}, 50.0, 500e-6},   // filled below
      {"uniform_1us_to_1ms_p95", {}, 95.0, 950e-6},
      {"uniform_1us_to_1ms_p99", {}, 99.0, 990e-6},
      {"single_value_any_pct", {0.25}, 99.0, 0.25},
      {"two_points_p50", {1e-6, 1.0}, 50.0, 1e-6},
      {"heavy_tail_p99", {}, 99.0, 60.0},
  };
  for (const Case& c : cases) {
    obs::MetricsRegistry reg;
    obs::Histogram* h = reg.histogram("phase");
    std::vector<double> values = c.values;
    if (std::string(c.name).rfind("uniform", 0) == 0) {
      for (int i = 1; i <= 1000; ++i) {
        values.push_back(static_cast<double>(i) * 1e-6);  // 1us .. 1ms
      }
    } else if (std::string(c.name) == "heavy_tail_p99") {
      for (int i = 0; i < 980; ++i) {
        values.push_back(1e-6);
      }
      for (int i = 0; i < 20; ++i) {
        values.push_back(60.0);  // twenty one-minute stalls: p99 is a stall
      }
    }
    for (double v : values) {
      h->Record(v);
    }
    double got = h->Percentile(c.pct);
    EXPECT_NEAR(got, c.expected, c.expected * 0.065)
        << c.name << ": p" << c.pct << " = " << got << ", want ~" << c.expected;
  }
}

TEST(ProfHistogramTest, PercentileClampedToObservedRange) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("phase");
  h->Record(3e-6);
  h->Record(5e-6);
  EXPECT_GE(h->Percentile(0.0), 3e-6);
  EXPECT_LE(h->Percentile(100.0), 5e-6);
}

// --- no effect on simulation output ------------------------------------------

TEST(ProfIsolationTest, ProfilingModesLeaveDigestsIdentical) {
  // The acceptance bar: bit-identical SimulationResult digests with the
  // profiler off, in summary mode, and in timeline mode, at jobs=1 and 4.
  ProfilerGuard profiler_guard;
  exp::ExperimentPlan plan;
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    plan.Add(SmallCluster(seed));
  }
  std::vector<uint64_t> digests;
  for (ProfMode mode : {ProfMode::kOff, ProfMode::kSummary, ProfMode::kTimeline}) {
    for (int jobs : {1, 4}) {
      Profiler::Instance().SetMode(mode);
      std::vector<SimulationResult> results = exp::RunParallel(plan, jobs);
      Profiler::Instance().SetMode(ProfMode::kOff);
      Profiler::Instance().Reset();
      testing::MetricDigest digest;
      for (const SimulationResult& result : results) {
        digest.Fold(testing::DigestMetrics(result.metrics));
      }
      digests.push_back(digest.hash());
    }
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "mode/jobs combination " << i;
  }
}

// --- per-thread buffers under a real parallel run -----------------------------

TEST(ProfParallelTest, CollectAfterJobs4IsSelfConsistent) {
  // Eight runs across the pool workers: every worker records into its own
  // buffer concurrently; Collect after Wait must see all of it exactly once.
  // The runner clamps workers to the hardware, so the expected pool size is
  // min(4, cores); global metrics are enabled so run contexts are built
  // (with collectors dark the runner skips them entirely).
  ProfilerGuard profiler_guard;
  const int expected_workers = std::min(4, exp::HardwareJobs());
  obs::MetricsRegistry::SetEnabled(true);
  Profiler::Instance().SetMode(ProfMode::kSummary);
  Profiler::Instance().LabelCurrentThread("main");
  exp::ExperimentPlan plan;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    plan.Add(SmallCluster(seed));
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan, 4);
  obs::MetricsRegistry::SetEnabled(false);
  obs::MetricsRegistry::Global().ResetValues();
  Report report = Profiler::Instance().Collect(/*reset=*/true);

  EXPECT_EQ(report.jobs, expected_workers);
  EXPECT_TRUE(report.HasSamples());
  EXPECT_GT(report.wall_s, 0.0);
  bool saw_sim = false, saw_merge = false, saw_setup = false, saw_task_run = false;
  uint64_t sim_count = 0;
  for (const PhaseStats& p : report.phases) {
    std::string name = p.name;
    if (name == "exp.run_sim") {
      saw_sim = true;
      sim_count = p.count;
    }
    saw_merge = saw_merge || name == "exp.merge";
    saw_setup = saw_setup || name == "exp.run_setup";
    saw_task_run = saw_task_run || name == "pool.task_run";
  }
  EXPECT_TRUE(saw_sim);
  EXPECT_EQ(sim_count, 8u);
  if (expected_workers > 1) {
    // The pool path: one context per run, every task popped or stolen
    // exactly once, and every phase the parallel path wraps fired.
    EXPECT_EQ(report.counts[static_cast<int>(Count::kTasksRun)], 8u);
    EXPECT_EQ(report.counts[static_cast<int>(Count::kRunContexts)], 8u);
    EXPECT_EQ(report.counts[static_cast<int>(Count::kPoolOwnPops)] +
                  report.counts[static_cast<int>(Count::kPoolSteals)],
              8u);
    EXPECT_TRUE(saw_merge && saw_setup && saw_task_run);
    // Every pool worker recorded; rows merge by label, exactly worker0..N-1.
    EXPECT_EQ(report.workers.size(), static_cast<size_t>(expected_workers));
  } else {
    // A single effective worker takes the inline serial path: no pool, no
    // contexts, no merge — the legacy loop with nothing layered on top.
    EXPECT_EQ(report.counts[static_cast<int>(Count::kRunContexts)], 0u);
    EXPECT_FALSE(saw_task_run);
  }
  // busy <= wall per worker, so efficiency is a fraction (plus clock jitter).
  EXPECT_GT(report.parallel_efficiency, 0.0);
  EXPECT_LE(report.parallel_efficiency, 1.1);
  EXPECT_GE(report.merge_serial_fraction, 0.0);
  EXPECT_STRNE(report.bottleneck, "");

  // reset=true opened a fresh window: nothing left to collect.
  Report empty = Profiler::Instance().Collect(/*reset=*/false);
  EXPECT_FALSE(empty.HasSamples());
}

// --- invariant-walk layer -------------------------------------------------------

// Count of `phase` in a collected report, 0 when the phase recorded nothing
// (Collect omits empty phases).
uint64_t PhaseCount(const Report& report, Phase phase) {
  for (const PhaseStats& p : report.phases) {
    if (std::string(p.name) == PhaseName(phase)) {
      return p.count;
    }
  }
  return 0;
}

TEST(ProfCheckWalkTest, CheckedDayTimesEveryWalkAndUncheckedDayNone) {
  ProfilerGuard profiler_guard;
  EXPECT_STREQ(PhaseName(Phase::kCheckWalk), "check.walk");
  EXPECT_FALSE(PhaseIsTimeline(Phase::kCheckWalk));
  const SimulationConfig config = SmallCluster();
  exp::ExperimentPlan plan;
  plan.Add(config);

  // Checked: one walk after every planning round plus one at end of run.
  check::InvariantChecker checker(check::CheckMode::kWarn);
  check::InvariantChecker::Install(&checker);
  Profiler::Instance().SetMode(ProfMode::kSummary);
  (void)exp::RunParallel(plan, 1);
  Profiler::Instance().SetMode(ProfMode::kOff);
  check::InvariantChecker::Install(nullptr);
  Report checked = Profiler::Instance().Collect(/*reset=*/true);
  const uint64_t planning_rounds =
      static_cast<uint64_t>(SimTime::Hours(24.0) / config.cluster.planning_interval);
  EXPECT_EQ(PhaseCount(checked, Phase::kCheckWalk), planning_rounds + 1);
  EXPECT_EQ(checker.violation_count(), 0u);

  // Unchecked: the walk never runs, so the phase is absent from the report.
  Profiler::Instance().SetMode(ProfMode::kSummary);
  (void)exp::RunParallel(plan, 1);
  Profiler::Instance().SetMode(ProfMode::kOff);
  Report unchecked = Profiler::Instance().Collect(/*reset=*/true);
  EXPECT_TRUE(unchecked.HasSamples());
  EXPECT_EQ(PhaseCount(unchecked, Phase::kCheckWalk), 0u);
}

// --- report wiring ------------------------------------------------------------

TEST(ProfReportTest, JsonCarriesScalingFieldsAndParses) {
  ProfilerGuard profiler_guard;
  Profiler::Instance().SetMode(ProfMode::kSummary);
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(7));
  plan.Add(SmallCluster(8));
  exp::RunParallel(plan, 2);
  Report report = Profiler::Instance().Collect(/*reset=*/true);
  std::ostringstream json;
  report.WriteJson(json, 0);
  const std::string text = json.str();
  // The CI perf-smoke gate greps for exactly these fields.
  EXPECT_NE(text.find("\"parallel_efficiency\":"), std::string::npos);
  EXPECT_NE(text.find("\"merge_serial_fraction\":"), std::string::npos);
  EXPECT_NE(text.find("\"worker_idle_share\":"), std::string::npos);
  EXPECT_NE(text.find("\"bottleneck\":"), std::string::npos);
  EXPECT_NE(text.find("\"trace_dropped\":"), std::string::npos);

  std::ostringstream table;
  report.WriteTable(table);
  EXPECT_NE(table.str().find("[prof] top scaling bottleneck:"), std::string::npos);
}

TEST(ProfReportTest, ShareStaysWithinWindowForPhasesOutsideRunParallel) {
  // Two threads record sim.dispatch outside any RunParallel, as ShardRunner's
  // rack shards do; the main thread's RunParallel phase is far shorter. A
  // share phrased against the RunParallel total would read ~4000% here.
  ProfilerGuard profiler_guard;
  Profiler::Instance().SetMode(ProfMode::kSummary);
  std::vector<std::thread> shards;
  for (int i = 0; i < 2; ++i) {
    shards.emplace_back([] {
      ProfScope scope(Phase::kSimDispatch);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
  }
  for (std::thread& shard : shards) {
    shard.join();
  }
  {
    ProfScope scope(Phase::kRunParallel);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Report report = Profiler::Instance().Collect(/*reset=*/true);
  EXPECT_EQ(report.threads, 3);
  EXPECT_GE(report.window_s, 0.020);
  bool saw_dispatch = false;
  for (const PhaseStats& phase : report.phases) {
    EXPECT_LE(report.Share(phase), 1.0) << phase.name;
    if (std::string(phase.name) == PhaseName(Phase::kSimDispatch)) {
      saw_dispatch = true;
      EXPECT_GT(phase.total_s, report.wall_s);  // the old denominator
      EXPECT_GT(report.Share(phase), 0.0);
    }
  }
  EXPECT_TRUE(saw_dispatch);
  // wall_s keeps its meaning: the RunParallel total.
  EXPECT_GE(report.wall_s, 0.001);
  EXPECT_LT(report.wall_s, report.window_s);
}

TEST(ProfReportTest, MetricsMergeDropCountSurfaces) {
  // A kind mismatch across run registries must not vanish: MergeFrom counts
  // the skipped instrument and the profiler report carries it.
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("x");
  b.histogram("x")->Record(1.0);
  b.counter("y")->Increment();
  a.MergeFrom(b);
  EXPECT_EQ(a.merge_dropped(), 1u);
  EXPECT_EQ(a.counter("y")->value(), 1u);

  // Drops already counted upstream propagate through further merges.
  obs::MetricsRegistry c;
  c.MergeFrom(a);
  EXPECT_EQ(c.merge_dropped(), 1u);
}

}  // namespace
}  // namespace prof
}  // namespace oasis
