// Check-instrumented cluster runs: the conservation walk under fault
// injection, and the RollbackMigration emergency-reintegration path in
// particular. A consolidation host crashing while partial migrations are in
// flight forces the manager through rollback + emergency reintegration; the
// installed checker asserts after every planning interval that no VM was
// lost or duplicated and that no partial-VM page state leaked.

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/invariants.h"
#include "src/cluster/manager.h"
#include "src/fault/fault.h"
#include "src/trace/trace_generator.h"

namespace oasis {

// Reaches the host fields no simulation path can corrupt.
struct ClusterHostTestPeer {
  static void SetCapacity(ClusterHost& host, uint64_t bytes) { host.capacity_bytes_ = bytes; }
  static void SetS3Capable(ClusterHost& host, bool capable) { host.s3_capable_ = capable; }
};

namespace {

using check::CheckMode;
using check::InvariantChecker;

ClusterConfig SmallCluster(uint64_t seed) {
  ClusterConfig config;
  config.num_home_hosts = 6;
  config.num_consolidation_hosts = 2;
  config.vms_per_home = 10;
  config.policy = ConsolidationPolicy::kFullToPartial;
  config.seed = seed;
  return config;
}

TraceSet TraceFor(const ClusterConfig& config) {
  TraceGenerator generator(TraceGeneratorConfig{}, config.seed ^ 0x7ACEBA5Eull);
  return generator.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday);
}

// Installs a warn-mode checker for the duration of each test so every
// instrumentation site in the manager/hypervisor/power layers is live, and
// fails the test if any invariant fired.
class CheckClusterTest : public ::testing::Test {
 protected:
  void SetUp() override { InvariantChecker::Install(&checker_); }
  void TearDown() override {
    InvariantChecker::Install(nullptr);
    EXPECT_EQ(checker_.violation_count(), 0u) << "invariant violations recorded; "
                                                 "see stderr for the structured report";
  }

  void ExpectNoVmLostOrDuplicated(const ClusterManager& manager) {
    size_t census = 0;
    for (size_t h = 0; h < manager.num_hosts(); ++h) {
      census += manager.GetHost(static_cast<HostId>(h)).vms().size();
    }
    EXPECT_EQ(census, manager.num_vms());
    for (size_t v = 0; v < manager.num_vms(); ++v) {
      const VmSlot& vm = manager.GetVm(static_cast<VmId>(v));
      ASSERT_LT(vm.location, manager.num_hosts()) << "vm " << v;
      EXPECT_TRUE(manager.GetHost(vm.location).HasVm(vm.id))
          << "vm " << v << " not resident where its slot points";
    }
  }

  InvariantChecker checker_{CheckMode::kWarn};
};

TEST_F(CheckClusterTest, CrashMidPartialMigrationReintegratesWithoutPageLoss) {
  ClusterConfig config = SmallCluster(20160419);
  config.fault.enabled = true;
  // Aborted streams plus explicit crashes on both consolidation hosts, spread
  // across the day so several land while vacate migrations are in flight —
  // exactly the window where RollbackMigration's emergency path runs.
  config.fault.migration_abort_per_hour = 2.0;
  for (int hour = 1; hour < 24; hour += 2) {
    config.fault.scheduled.push_back(
        {SimTime::Hours(hour) + SimTime::Seconds(17), FaultClass::kHostCrash,
         /*target=*/-1});
  }

  TraceSet trace = TraceFor(config);
  ClusterManager manager(config, trace);
  ClusterMetrics metrics = manager.Run();

  // The path under test actually ran: crashes were injected and recovered,
  // in-flight migrations were rolled back, and the cluster kept operating.
  const FaultInjector& injector = manager.fault_injector();
  EXPECT_GT(injector.injected(FaultClass::kHostCrash), 0u);
  EXPECT_EQ(injector.injected(FaultClass::kHostCrash),
            injector.recovered(FaultClass::kHostCrash));
  EXPECT_GT(injector.injected(FaultClass::kMigrationAbort), 0u);
  EXPECT_EQ(injector.injected(FaultClass::kMigrationAbort),
            injector.recovered(FaultClass::kMigrationAbort));
  EXPECT_GT(metrics.reintegrations, 0u);

  // No page loss: the end-of-day conservation walk re-checks reservation and
  // working-set accounting for every host and VM (the per-interval walks
  // already ran inside Run() via the installed checker).
  ExpectNoVmLostOrDuplicated(manager);
  // One walk on a consistent cluster runs exactly 9 checks per VM and 12 per
  // host (636 on SmallCluster's 60 VMs and 8 hosts):
  //   per VM:   2 in the host loop over its one residency (id in range,
  //             location matches) + 7 per-VM state-machine rules;
  //   per host: 8 per-host rules (active count, reservation, capacity,
  //             memory server, ledger coverage, S3 gate, two energy
  //             envelopes) + 4 recounts of the maintained aggregates.
  // A walk-local tally that drops or double-counts fails here.
  uint64_t before = checker_.checks_run();
  CheckClusterInvariants(manager, SimTime::Hours(24.0), checker_);
  EXPECT_EQ(checker_.checks_run() - before, 9 * manager.num_vms() + 12 * manager.num_hosts());
}

TEST_F(CheckClusterTest, ScheduledMigrationAbortsRollBackCleanly) {
  ClusterConfig config = SmallCluster(7);
  config.fault.enabled = true;
  config.fault.migration_abort_per_hour = 4.0;

  TraceSet trace = TraceFor(config);
  ClusterManager manager(config, trace);
  (void)manager.Run();

  const FaultInjector& injector = manager.fault_injector();
  EXPECT_GT(injector.injected(FaultClass::kMigrationAbort), 0u)
      << "no abort fired; the rollback path went unexercised";
  EXPECT_EQ(injector.injected(FaultClass::kMigrationAbort),
            injector.recovered(FaultClass::kMigrationAbort));
  ExpectNoVmLostOrDuplicated(manager);
  CheckClusterInvariants(manager, SimTime::Hours(24.0), checker_);
}

TEST_F(CheckClusterTest, CleanDayRunsMillionsOfChecksWithZeroViolations) {
  ClusterConfig config = SmallCluster(42);
  TraceSet trace = TraceFor(config);
  ClusterManager manager(config, trace);
  (void)manager.Run();
  // The per-interval walks plus the hypervisor/power hooks all executed.
  EXPECT_GT(checker_.checks_run(), 10000u);
  ExpectNoVmLostOrDuplicated(manager);
}

// --- negative coverage: every walk rule fires on the field it guards --------

// One corruption per walk rule: it breaks exactly one invariant of a finished
// manager's state (compensating every other sum the change would disturb)
// and returns the args the single violation must carry.
struct WalkRuleCase {
  const char* rule;
  std::function<obs::TraceArgs(ClusterManager&, ClusterState&)> corrupt;
};

const SimTime kEndOfDay = SimTime::Hours(24.0);

int64_t H(HostId id) { return static_cast<int64_t>(id); }
int64_t V(VmId id) { return static_cast<int64_t>(id); }

// The first VM matching `pred` that has no migration in flight.
VmId FindVm(const ClusterState& state, const std::function<bool(const VmSlot&)>& pred) {
  for (const VmSlot& vm : state.vms) {
    if (!vm.migration_in_flight && pred(vm)) {
      return vm.id;
    }
  }
  ADD_FAILURE() << "no VM in the finished state matches the corruption's needs";
  return 0;
}

// The first host matching `pred`.
HostId FindHost(const ClusterState& state, const std::function<bool(const ClusterHost&)>& pred) {
  for (const auto& host : state.hosts) {
    if (pred(*host)) {
      return host->id();
    }
  }
  ADD_FAILURE() << "no host in the finished state matches the corruption's needs";
  return 0;
}

bool AnyVm(const VmSlot&) { return true; }
bool IsPartial(const VmSlot& vm) { return vm.residency == VmResidency::kPartial; }
bool IsFull(const VmSlot& vm) { return vm.residency != VmResidency::kPartial; }

// Takes VM `vid` out of the resident set of its location, keeping that
// host's active count and reservation equal to what its remaining residents
// sum to.
void DetachFromLocation(ClusterState& state, VmId vid) {
  const VmSlot& vm = state.vms[vid];
  ClusterHost& host = *state.hosts[vm.location];
  host.RemoveVm(kEndOfDay, vid);
  if (vm.activity == VmActivity::kActive) {
    host.SetActiveVms(kEndOfDay, host.active_vms() - 1);
  }
  if (host.IsConsolidationHost()) {
    host.Release(vm.ReservedBytes());
  }
}

// The home host with the lowest id other than `not_this`.
HostId OtherHome(const ClusterState& state, HostId not_this) {
  return FindHost(state,
                  [&](const ClusterHost& h) { return h.IsHomeHost() && h.id() != not_this; });
}

std::vector<WalkRuleCase> WalkRuleCases() {
  return {
      {"cluster.vm_id_in_range",
       [](ClusterManager&, ClusterState& s) {
         HostId h = FindHost(s, [](const ClusterHost& host) { return host.IsHomeHost(); });
         VmId unknown = static_cast<VmId>(s.vms.size() + 7);
         s.hosts[h]->AddVm(kEndOfDay, unknown);
         return obs::TraceArgs{H(h), V(unknown)};
       }},
      {"cluster.location_matches_residency",
       [](ClusterManager&, ClusterState& s) {
         VmId v = FindVm(s, AnyVm);
         HostId stray = OtherHome(s, s.vms[v].location);
         DetachFromLocation(s, v);
         ClusterHost& host = *s.hosts[stray];
         host.AddVm(kEndOfDay, v);
         if (s.vms[v].activity == VmActivity::kActive) {
           host.SetActiveVms(kEndOfDay, host.active_vms() + 1);
         }
         return obs::TraceArgs{H(stray), V(v)};
       }},
      {"cluster.active_count_balanced",
       [](ClusterManager&, ClusterState& s) {
         ClusterHost& host = *s.hosts[0];
         host.SetActiveVms(kEndOfDay, host.active_vms() + 1);
         return obs::TraceArgs{H(0)};
       }},
      {"cluster.reservation_conservation",
       [](ClusterManager&, ClusterState& s) {
         HostId h = FindHost(s, [](const ClusterHost& host) { return host.AvailableBytes() > 0; });
         s.hosts[h]->Reserve(1);
         return obs::TraceArgs{H(h), -1, static_cast<int64_t>(s.hosts[h]->reserved_bytes())};
       }},
      {"cluster.capacity_respected",
       [](ClusterManager&, ClusterState& s) {
         HostId h = FindHost(s, [](const ClusterHost& host) { return host.reserved_bytes() > 0; });
         ClusterHostTestPeer::SetCapacity(*s.hosts[h], s.hosts[h]->reserved_bytes() - 1);
         return obs::TraceArgs{H(h)};
       }},
      {"cluster.memory_server_on_homes_only",
       [](ClusterManager&, ClusterState& s) {
         HostId c = FindHost(s, [](const ClusterHost& host) { return host.IsConsolidationHost(); });
         s.hosts[c]->SetMemoryServerPowered(kEndOfDay, true);
         return obs::TraceArgs{H(c)};
       }},
      {"power.ledger_covers_run",
       [](ClusterManager&, ClusterState& s) {
         s.hosts[1]->AdvanceLedger(kEndOfDay + SimTime::Micros(1));
         return obs::TraceArgs{H(1)};
       }},
      {"power.s3_on_incapable_host",
       [](ClusterManager&, ClusterState& s) {
         HostId h = FindHost(s, [](const ClusterHost& host) {
           return host.ledger().TimeInAt(HostPowerState::kSuspending, kEndOfDay) >
                  SimTime::Zero();
         });
         ClusterHostTestPeer::SetS3Capable(*s.hosts[h], false);
         return obs::TraceArgs{H(h)};
       }},
      {"power.energy_within_model",
       [](ClusterManager&, ClusterState& s) {
         // Re-stating the active count far in the future bills the meter
         // for 1000 h the ledger never saw.
         ClusterHost& host = *s.hosts[2];
         host.SetActiveVms(kEndOfDay + SimTime::Hours(1000.0), host.active_vms());
         return obs::TraceArgs{H(2)};
       }},
      {"power.ms_energy_within_model",
       [](ClusterManager&, ClusterState& s) {
         // 1000 h of memory-server draw, with the server left as it was.
         ClusterHost& host = *s.hosts[3];
         const bool was_on = host.memory_server_powered();
         host.SetMemoryServerPowered(kEndOfDay, true);
         host.SetMemoryServerPowered(kEndOfDay + SimTime::Hours(1000.0), false);
         host.SetMemoryServerPowered(kEndOfDay + SimTime::Hours(1000.0), was_on);
         return obs::TraceArgs{H(3)};
       }},
      {"cluster.partials_homed_counter_exact",
       [](ClusterManager&, ClusterState& s) {
         ++s.partials_homed[4];
         return obs::TraceArgs{4, -1, s.partials_homed[4]};
       }},
      {"cluster.fac_homed_exact",
       [](ClusterManager&, ClusterState& s) {
         ++s.fac_homed[5];
         return obs::TraceArgs{5, -1, s.fac_homed[5]};
       }},
      {"cluster.inflight_residents_exact",
       [](ClusterManager&, ClusterState& s) {
         ++s.inflight_residents[6];
         return obs::TraceArgs{6, -1, s.inflight_residents[6]};
       }},
      {"cluster.partial_residents_exact",
       [](ClusterManager&, ClusterState& s) {
         --s.partial_residents[7];
         return obs::TraceArgs{7, -1, s.partial_residents[7]};
       }},
      {"cluster.vm_on_exactly_one_host",
       [](ClusterManager&, ClusterState& s) {
         VmId v = FindVm(s, AnyVm);
         DetachFromLocation(s, v);
         return obs::TraceArgs{H(s.vms[v].location), V(v)};
       }},
      {"cluster.home_is_home",
       [](ClusterManager&, ClusterState& s) {
         // A partial VM re-homed onto a consolidation host, with its old
         // home's reservation and both homed counters moved along.
         VmId v = FindVm(s, IsPartial);
         VmSlot& vm = s.vms[v];
         HostId c = FindHost(s, [](const ClusterHost& host) { return host.IsConsolidationHost(); });
         s.hosts[vm.home]->Release(vm.full_bytes);
         --s.partials_homed[vm.home];
         ++s.partials_homed[c];
         vm.home = c;
         return obs::TraceArgs{H(c), V(v)};
       }},
      {"cluster.residency_location_consistent",
       [](ClusterManager&, ClusterState& s) {
         // A full VM whose residency names the other tier (the homed
         // counter follows the new residency).
         VmId v = FindVm(s, IsFull);
         VmSlot& vm = s.vms[v];
         if (vm.residency == VmResidency::kFullAtHome) {
           vm.residency = VmResidency::kFullAtConsolidation;
           ++s.fac_homed[vm.home];
         } else {
           vm.residency = VmResidency::kFullAtHome;
           --s.fac_homed[vm.home];
         }
         return obs::TraceArgs{H(vm.location), V(v)};
       }},
      {"cluster.ws_fetch_conservation",
       [](ClusterManager&, ClusterState& s) {
         VmSlot& vm = s.vms[FindVm(s, IsPartial)];
         vm.ws_unfetched = vm.ws_bytes + 1;
         return obs::TraceArgs{H(vm.location), V(vm.id), static_cast<int64_t>(vm.ws_unfetched)};
       }},
      {"cluster.full_vm_carries_no_partial_state",
       [](ClusterManager&, ClusterState& s) {
         VmSlot& vm = s.vms[FindVm(s, IsFull)];
         vm.dirty_bytes = 1;
         return obs::TraceArgs{H(vm.location), V(vm.id)};
       }},
      {"cluster.dirty_within_cap",
       [](ClusterManager& m, ClusterState& s) {
         VmSlot& vm = s.vms[FindVm(s, IsPartial)];
         vm.dirty_bytes = m.config().volumes.dirty_cap_bytes + 1;
         return obs::TraceArgs{H(vm.location), V(vm.id), static_cast<int64_t>(vm.dirty_bytes)};
       }},
      {"cluster.migration_bookkeeping_paired",
       [](ClusterManager&, ClusterState& s) {
         VmSlot& vm = s.vms[FindVm(s, AnyVm)];
         vm.pending_op = VmSlot::PendingOp::kOther;
         return obs::TraceArgs{H(vm.location), V(vm.id)};
       }},
  };
}

TEST(InvariantWalkRulesTest, EachCorruptedFieldFiresExactlyItsRule) {
  // The walk runs against a checker that is never installed, so only the
  // walk itself can record a violation.
  ClusterConfig config = SmallCluster(42);
  TraceSet trace = TraceFor(config);
  const std::vector<WalkRuleCase> cases = WalkRuleCases();
  std::set<std::string> covered;
  for (const WalkRuleCase& c : cases) {
    SCOPED_TRACE(c.rule);
    ClusterManager manager(config, trace);
    (void)manager.Run();
    InvariantChecker clean(CheckMode::kWarn);
    clean.TrackEvaluatedRules();
    CheckClusterInvariants(manager, kEndOfDay, clean);
    ASSERT_EQ(clean.violation_count(), 0u);
    ASSERT_EQ(clean.EvaluatedRules().count(c.rule), 1u) << "the walk never evaluates it";

    const obs::TraceArgs expected = c.corrupt(manager, manager.MutableStateForTest());
    InvariantChecker checker(CheckMode::kWarn);
    CheckClusterInvariants(manager, kEndOfDay, checker);
    const std::vector<check::Violation> violations = checker.violations();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_STREQ(violations[0].invariant, c.rule);
    EXPECT_EQ(violations[0].at, kEndOfDay);
    EXPECT_FALSE(violations[0].detail.empty());
    EXPECT_EQ(violations[0].args.host, expected.host);
    EXPECT_EQ(violations[0].args.vm, expected.vm);
    EXPECT_EQ(violations[0].args.bytes, expected.bytes);
    covered.insert(c.rule);
  }
  // The table covers every rule the walk evaluates.
  ClusterManager manager(config, trace);
  (void)manager.Run();
  InvariantChecker census(CheckMode::kWarn);
  census.TrackEvaluatedRules();
  CheckClusterInvariants(manager, kEndOfDay, census);
  EXPECT_EQ(covered, census.EvaluatedRules());
}

}  // namespace
}  // namespace oasis
