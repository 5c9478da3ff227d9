// Metamorphic properties of the simulator: relations that must hold between
// *pairs* of runs, regardless of what the right answer is. Each property is
// phrased over the full metric digest (tests/metric_digest.h), so a single
// perturbed interval snapshot or one-ULP energy drift fails the suite. Every
// test runs with the invariant checker installed in warn mode; a recorded
// violation fails the test at teardown.
//
//   1. Seed determinism      — same config, same digest. Different seed,
//                              different digest (the test is not vacuous).
//   2. Jobs equivalence      — RunParallel at jobs=1 and jobs=4 produce
//                              bit-identical per-run results.
//   3. Relabeling invariance — permuting user-trace rows cannot change the
//                              cluster-wide activity timeline or the
//                              baseline, and swapping whole home-host blocks
//                              (a pure host relabeling) moves the headline
//                              energy only marginally.
//   4. Fault-disabled identity — a chaos config with enabled=false is
//                              byte-identical to the pre-fault default.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/strategy.h"
#include "src/exp/exp.h"
#include "src/fault/fault.h"
#include "src/trace/trace_generator.h"
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

TraceSet FixedTrace(const SimulationConfig& config) {
  TraceGenerator generator(config.trace, config.seed ^ 0x7ACEBA5Eull);
  return generator.GenerateTraceSet(config.cluster.TotalVms(), config.day);
}

class MetamorphicTest : public ::testing::Test {
 protected:
  void SetUp() override { InvariantChecker::Install(&checker_); }
  void TearDown() override {
    InvariantChecker::Install(nullptr);
    EXPECT_EQ(checker_.violation_count(), 0u)
        << "invariant violations recorded during a metamorphic run";
  }

  static SimulationResult RunOnce(const SimulationConfig& config) {
    return ClusterSimulation(config).Run();
  }

  InvariantChecker checker_{CheckMode::kWarn};
};

TEST_F(MetamorphicTest, SameSeedSameDigestDifferentSeedDifferentDigest) {
  SimulationConfig config = SmallCluster(2016);
  uint64_t first = testing::DigestResult(RunOnce(config));
  uint64_t second = testing::DigestResult(RunOnce(config));
  EXPECT_EQ(first, second);

  SimulationConfig reseeded = SmallCluster(2017);
  EXPECT_NE(testing::DigestResult(RunOnce(reseeded)), first)
      << "digest ignored the seed; the determinism property is vacuous";
}

TEST_F(MetamorphicTest, ParallelJobsProduceBitIdenticalDigests) {
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(5));
  plan.Add(SmallCluster(6));
  plan.AddRepetitions(SmallCluster(7), 3);

  std::vector<SimulationResult> serial = exp::RunParallel(plan, 1);
  std::vector<SimulationResult> parallel = exp::RunParallel(plan, 4);
  ASSERT_EQ(serial.size(), plan.size());
  ASSERT_EQ(parallel.size(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(testing::DigestResult(parallel[i]), testing::DigestResult(serial[i]))
        << "plan index " << i;
  }
}

TEST_F(MetamorphicTest, TracePermutationPreservesActivityTimelineAndBaseline) {
  SimulationConfig config = SmallCluster(99);
  config.fixed_trace = FixedTrace(config);
  SimulationResult original = RunOnce(config);

  // Reversing the rows is a maximal relabeling: every VM gets a different
  // user, but the multiset of user-days — and therefore the cluster-wide
  // number of active VMs at every interval — is untouched.
  TraceSet reversed_rows = *config.fixed_trace;
  std::reverse(reversed_rows.begin(), reversed_rows.end());
  SimulationConfig relabeled = config;
  relabeled.fixed_trace = std::move(reversed_rows);
  SimulationResult reversed = RunOnce(relabeled);

  EXPECT_EQ(reversed.metrics.baseline_energy, original.metrics.baseline_energy);
  ASSERT_EQ(reversed.metrics.timeline.size(), original.metrics.timeline.size());
  for (size_t i = 0; i < original.metrics.timeline.size(); ++i) {
    EXPECT_EQ(reversed.metrics.timeline[i].active_vms,
              original.metrics.timeline[i].active_vms)
        << "interval " << i;
  }
}

TEST_F(MetamorphicTest, HomeHostBlockSwapIsAHostRelabeling) {
  SimulationConfig config = SmallCluster(123);
  config.fixed_trace = FixedTrace(config);
  SimulationResult original = RunOnce(config);

  // Swapping the trace blocks of home host 0 and home host 1 relabels the
  // two hosts. Planning order and RNG stream assignment shift, so the runs
  // are not bit-identical — but the physics cannot move much: the same users
  // run on the same hardware.
  TraceSet swapped_rows = *config.fixed_trace;
  const int block = config.cluster.vms_per_home;
  for (int v = 0; v < block; ++v) {
    std::swap(swapped_rows[v], swapped_rows[block + v]);
  }
  SimulationConfig swapped = config;
  swapped.fixed_trace = std::move(swapped_rows);
  SimulationResult relabeled = RunOnce(swapped);

  EXPECT_EQ(relabeled.metrics.baseline_energy, original.metrics.baseline_energy);
  ASSERT_EQ(relabeled.metrics.timeline.size(), original.metrics.timeline.size());
  for (size_t i = 0; i < original.metrics.timeline.size(); ++i) {
    EXPECT_EQ(relabeled.metrics.timeline[i].active_vms,
              original.metrics.timeline[i].active_vms)
        << "interval " << i;
  }
  EXPECT_NEAR(relabeled.metrics.TotalEnergy(), original.metrics.TotalEnergy(),
              0.05 * original.metrics.TotalEnergy());
  EXPECT_NEAR(relabeled.metrics.EnergySavings(), original.metrics.EnergySavings(), 0.05);
}

TEST_F(MetamorphicTest, DisabledFaultConfigIsByteIdenticalToPreFaultRun) {
  SimulationConfig plain = SmallCluster(31337);
  uint64_t plain_digest = testing::DigestResult(RunOnce(plain));

  // A fully-populated chaos config with the master switch off must not
  // consume a single extra random draw.
  SimulationConfig disarmed = plain;
  disarmed.cluster.fault = FaultConfig::ChaosDay();
  disarmed.cluster.fault.enabled = false;
  EXPECT_EQ(testing::DigestResult(RunOnce(disarmed)), plain_digest);

  // And the enabled chaos day actually changes the run (the switch matters).
  SimulationConfig armed = plain;
  armed.cluster.fault = FaultConfig::ChaosDay();
  SimulationResult chaotic = RunOnce(armed);
  EXPECT_GT(chaotic.metrics.faults_injected, 0u);
  EXPECT_NE(testing::DigestResult(chaotic), plain_digest);
}

TEST_F(MetamorphicTest, DefaultStrategyReproducesTheLegacyManagerDigest) {
  // Policy-identity pin for the control-plane split (view / strategy /
  // actuator): the "oasis-greedy" strategy must reproduce the pre-refactor
  // monolithic ClusterManager byte for byte. The constant below is the
  // digest of SmallCluster(2016) captured against the last monolithic
  // build; it must hold at any parallelism. It was re-pinned once, when two
  // always-zero fault classes left the digested per-class arrays: folding six
  // zeros after class 1 reproduces the original 0xb99c15c8663b6673.
  constexpr uint64_t kLegacyDigest = 0x7c7c4089f1521f33ull;
  SimulationConfig config = SmallCluster(2016);
  config.cluster.strategy_name = kDefaultStrategyName;  // explicit == default
  exp::ExperimentPlan plan;
  plan.Add(config);
  for (int jobs : {1, 4}) {
    std::vector<SimulationResult> results = exp::RunParallel(plan, jobs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(testing::DigestResult(results[0]), kLegacyDigest) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace oasis
