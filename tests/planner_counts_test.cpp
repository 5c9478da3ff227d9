// Maintained planner counts: the aggregates the Actuator keeps in
// ClusterState (per-home partials_homed and fac_homed, per-host
// inflight_residents and partial_residents) must equal a from-scratch
// recount over the VM table after every planning round. The invariant walk
// performs that recount each round; this suite runs it across every
// scenario shape the flagship binaries exercise:
//
//   * quickstart        — the default cluster, weekday and weekend;
//   * fig07/fig08       — the paper rack under all four consolidation
//                         policies (swaps on and off, NewHome moves,
//                         OnlyPartial's all-trusted gate);
//   * chaos_day         — crashes, aborts and rollbacks move residents and
//                         flip in-flight flags outside the planner's passes;
//   * predictive        — the forecast passes' pre-drains and pre-wakes;
//   * datacenter_day    — a faulted 4-rack datacenter at OASIS_JOBS 1 and 4.
//
// Each scenario must finish with zero violations and with every counter
// rule evaluated, so a rule that silently stopped running fails here. The
// planner's decisions themselves stay pinned by the golden suite.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/check/check.h"
#include "src/core/oasis.h"
#include "src/dc/ledger.h"
#include "src/dc/runner.h"
#include "src/dc/topology.h"
#include "src/fault/fault.h"

namespace oasis {
namespace {

using check::CheckMode;
using check::InvariantChecker;

constexpr const char* kCounterRules[] = {
    "cluster.partials_homed_counter_exact",
    "cluster.fac_homed_exact",
    "cluster.inflight_residents_exact",
    "cluster.partial_residents_exact",
};

// The paper's standard rack (30 homes x 30 VMs + 4 consolidation hosts),
// as bench/bench_util.h builds it for fig07/fig08/chaos_day.
SimulationConfig PaperRack(ConsolidationPolicy policy, DayKind day) {
  SimulationConfig config;
  config.cluster.policy = policy;
  config.day = day;
  config.seed = 20160418;
  return config;
}

class PlannerCountsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    checker_.TrackEvaluatedRules();
    InvariantChecker::Install(&checker_);
  }
  void TearDown() override {
    InvariantChecker::Install(nullptr);
    EXPECT_EQ(checker_.violation_count(), 0u) << "invariant violations recorded";
    const std::set<std::string> evaluated = checker_.EvaluatedRules();
    for (const char* rule : kCounterRules) {
      EXPECT_EQ(evaluated.count(rule), 1u) << rule << " was never evaluated";
    }
  }

  static void RunDay(const SimulationConfig& config) {
    SimulationResult result = ClusterSimulation(config).Run();
    EXPECT_GT(result.metrics.TotalEnergy(), 0.0);
  }

  InvariantChecker checker_{CheckMode::kWarn};
};

TEST_F(PlannerCountsTest, QuickstartWeekday) {
  RunDay(PaperRack(ConsolidationPolicy::kFullToPartial, DayKind::kWeekday));
}

TEST_F(PlannerCountsTest, QuickstartWeekend) {
  RunDay(PaperRack(ConsolidationPolicy::kFullToPartial, DayKind::kWeekend));
}

TEST_F(PlannerCountsTest, PaperRackAllPolicies) {
  for (ConsolidationPolicy policy :
       {ConsolidationPolicy::kOnlyPartial, ConsolidationPolicy::kDefault,
        ConsolidationPolicy::kFullToPartial, ConsolidationPolicy::kNewHome}) {
    SCOPED_TRACE(ConsolidationPolicyName(policy));
    RunDay(PaperRack(policy, DayKind::kWeekday));
  }
}

TEST_F(PlannerCountsTest, ChaosDay) {
  SimulationConfig config = PaperRack(ConsolidationPolicy::kFullToPartial, DayKind::kWeekday);
  config.cluster.fault = FaultConfig::ChaosDay();
  RunDay(config);
}

TEST_F(PlannerCountsTest, Predictive) {
  SimulationConfig config = PaperRack(ConsolidationPolicy::kFullToPartial, DayKind::kWeekday);
  config.cluster.strategy_name = "predictive";
  RunDay(config);
}

TEST_F(PlannerCountsTest, FaultedDatacenterAtJobsOneAndFour) {
  // Full 30-VM homes: thinner ones draw too little for the §3.1 gate to
  // ever open, and a rack that never migrates would leave every count at 0.
  dc::DatacenterConfig config;
  config.total_racks = 4;
  config.racks_per_pod = 2;
  config.rack.home_hosts = 8;
  config.rack.consolidation_hosts = 2;
  config.rack.vms_per_home = 30;
  config.rack.fault.enabled = true;
  config.rack.fault.host_crash_per_hour = 0.02;
  config.coordinator.rack_power_cap_watts = 3200.0;
  config.coordinator.cap_events_per_rack_day = 0.25;
  StatusOr<dc::DatacenterTopology> topology = dc::DatacenterTopology::Build(config);
  ASSERT_TRUE(topology.ok()) << topology.status().message();

  auto ledger_digest = [&](int jobs) {
    dc::DatacenterRun run = dc::ShardRunner(jobs).Run(topology.value());
    for (const dc::RackResult& rack : run.racks) {
      EXPECT_GT(rack.metrics.partial_migrations, 0u) << "rack " << rack.rack;
    }
    const dc::GlobalCoordinator coordinator(run.config.coordinator);
    return dc::DatacenterLedger::Build(run, coordinator.Coordinate(run)).Digest();
  };
  EXPECT_EQ(ledger_digest(1), ledger_digest(4));
}

}  // namespace
}  // namespace oasis
