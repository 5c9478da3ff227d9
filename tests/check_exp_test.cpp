// The invariant checker under the parallel experiment runner: concurrent
// runs share the process-wide checker, so its accounting must be thread-safe
// and — critically — a violation recorded while one run executes must not
// stop, perturb, or fail the sibling runs. It must only surface in the
// merged end-of-scope report.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/check/check.h"
#include "src/exp/exp.h"
#include "tests/metric_digest.h"

namespace oasis {
namespace {

using check::CheckMode;
using check::InvariantChecker;

SimulationConfig SmallCluster(uint64_t seed) {
  SimulationConfig config;
  config.cluster.num_home_hosts = 6;
  config.cluster.num_consolidation_hosts = 2;
  config.cluster.vms_per_home = 8;
  config.cluster.policy = ConsolidationPolicy::kFullToPartial;
  config.seed = seed;
  return config;
}

exp::ExperimentPlan MixedPlan() {
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(11));
  plan.Add(SmallCluster(22));
  plan.AddRepetitions(SmallCluster(33), 3);
  return plan;
}

std::vector<uint64_t> Digests(const std::vector<SimulationResult>& results) {
  std::vector<uint64_t> digests;
  digests.reserve(results.size());
  for (const SimulationResult& result : results) {
    digests.push_back(testing::DigestResult(result));
  }
  return digests;
}

TEST(CheckExpTest, CheckerObservesParallelRunsWithoutPerturbingThem) {
  exp::ExperimentPlan plan = MixedPlan();
  // Reference: no checker installed, serial — the legacy code path.
  std::vector<uint64_t> reference = Digests(exp::RunParallel(plan, 1));

  InvariantChecker checker(CheckMode::kStrict);
  InvariantChecker::Install(&checker);
  std::vector<uint64_t> observed = Digests(exp::RunParallel(plan, 4));
  InvariantChecker::Install(nullptr);

  // The checker ran (every worker hits the per-interval walks) and the runs
  // were clean...
  EXPECT_GT(checker.checks_run(), 10000u);
  EXPECT_EQ(checker.violation_count(), 0u);
  // ...and observing changed nothing: results are bit-identical to the
  // uninstrumented serial reference.
  EXPECT_EQ(observed, reference);
}

TEST(CheckExpTest, ViolationInOneRunDoesNotPoisonSiblings) {
  exp::ExperimentPlan plan = MixedPlan();
  std::vector<uint64_t> reference = Digests(exp::RunParallel(plan, 1));

  InvariantChecker checker(CheckMode::kStrict);
  InvariantChecker::Install(&checker);
  // A synthetic violation reported from another thread while the pool is
  // mid-flight: the moral equivalent of one run tripping an invariant.
  std::thread saboteur([&checker] {
    checker.Report("test.synthetic_failure", SimTime::Seconds(1),
                   "seeded from a concurrent run", obs::TraceArgs{3, 14});
  });
  std::vector<uint64_t> observed = Digests(exp::RunParallel(plan, 4));
  saboteur.join();
  InvariantChecker::Install(nullptr);

  // Every sibling run completed and produced exactly the clean-run results.
  ASSERT_EQ(observed.size(), plan.size());
  EXPECT_EQ(observed, reference);

  // The violation surfaces in the merged report with its structured payload.
  EXPECT_EQ(checker.violation_count(), 1u);
  std::vector<check::Violation> stored = checker.violations();
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_STREQ(stored[0].invariant, "test.synthetic_failure");
  EXPECT_EQ(stored[0].args.host, 3);
  EXPECT_EQ(stored[0].args.vm, 14);
  EXPECT_EQ(checker.ReportToStderr(), 1u);
}

TEST(CheckExpTest, ConcurrentReportsAreCountedExactly) {
  InvariantChecker checker(CheckMode::kWarn);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&checker, t] {
      for (int i = 0; i < kPerThread; ++i) {
        checker.Expect(i % 2 == 0, "test.concurrent", SimTime::Micros(t * kPerThread + i),
                       [] { return "odd"; });
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(checker.checks_run(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(checker.violation_count(), static_cast<uint64_t>(kThreads * kPerThread / 2));
  EXPECT_EQ(checker.violations().size(), InvariantChecker::kMaxStoredViolations);
}

TEST(CheckExpTest, ConcurrentTalliesAreCountedExactly) {
  // Parallel shards each run their own walk: one tally per thread, all
  // adding into the one shared checker when they go out of scope.
  InvariantChecker checker(CheckMode::kWarn);
  checker.TrackEvaluatedRules();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&checker, t] {
      InvariantChecker::Tally tally(checker);
      for (int i = 0; i < kPerThread; ++i) {
        tally.Expect(i % 2 == 0, "test.concurrent_tally", SimTime::Micros(t * kPerThread + i),
                     [] { return "odd"; });
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(checker.checks_run(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(checker.violation_count(), static_cast<uint64_t>(kThreads * kPerThread / 2));
  EXPECT_EQ(checker.violations().size(), InvariantChecker::kMaxStoredViolations);
  EXPECT_EQ(checker.EvaluatedRules(), std::set<std::string>{"test.concurrent_tally"});
}

}  // namespace
}  // namespace oasis
