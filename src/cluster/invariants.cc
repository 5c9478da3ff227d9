#include "src/cluster/invariants.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/cluster/manager.h"

namespace oasis {
namespace {

// Relative tolerance for floating-point energy comparisons. The integrals
// are exact piecewise sums, but a 24 h run accumulates hundreds of segment
// additions per meter, so allow rounding noise well below anything a real
// accounting bug would produce (a single mis-billed second at idle draw is
// ~1e2 J; the tolerance on a day's energy is ~1e-2 J).
constexpr double kEnergyRelTol = 1e-8;

bool WithinEnvelope(double value, double lo, double hi) {
  double slack = kEnergyRelTol * (1.0 + std::abs(hi));
  return value >= lo - slack && value <= hi + slack;
}

int64_t H(HostId id) { return static_cast<int64_t>(id); }
int64_t V(VmId id) { return static_cast<int64_t>(id); }

// The per-VM state-machine rules of the VM pass, as bit positions of a
// failure mask, in report order.
enum VmRule : unsigned {
  kHomeIsHome,
  kResidencyLocation,
  kWsFetch,
  kFullVmNoPartialState,
  kDirtyWithinCap,
  kMigrationPaired,
  kNumVmRules,
};
constexpr const char* kVmRuleIds[kNumVmRules] = {
    "cluster.home_is_home",
    "cluster.residency_location_consistent",
    "cluster.ws_fetch_conservation",
    "cluster.full_vm_carries_no_partial_state",
    "cluster.dirty_within_cap",
    "cluster.migration_bookkeeping_paired",
};

// The per-host rules evaluated after each host's resident pass.
enum HostRule : unsigned {
  kActiveCount,
  kReservation,
  kCapacity,
  kMsOnHomes,
  kLedgerCovers,
  kS3Incapable,
  kEnergy,
  kMsEnergy,
  kNumHostRules,
};
constexpr const char* kHostRuleIds[kNumHostRules] = {
    "cluster.active_count_balanced",    "cluster.reservation_conservation",
    "cluster.capacity_respected",       "cluster.memory_server_on_homes_only",
    "power.ledger_covers_run",          "power.s3_on_incapable_host",
    "power.energy_within_model",        "power.ms_energy_within_model",
};

constexpr const char* kVmIdInRange = "cluster.vm_id_in_range";
constexpr const char* kLocationMatchesResidency = "cluster.location_matches_residency";
constexpr const char* kVmOnExactlyOneHost = "cluster.vm_on_exactly_one_host";

unsigned FailBit(bool failed, unsigned rule) { return static_cast<unsigned>(failed) << rule; }

// Cold path of the VM pass: reports each rule set in `failed`.
[[gnu::noinline, gnu::cold]] void ReportVm(check::InvariantChecker& checker, SimTime now,
                                           unsigned failed, VmId vid, const VmSlot& vm,
                                           uint64_t dirty_cap) {
  const obs::TraceArgs at_location{H(vm.location), V(vid)};
  if (failed & (1u << kHomeIsHome)) {
    checker.Report(kVmRuleIds[kHomeIsHome], now,
                   "VM " + std::to_string(vid) + " homed at non-home host " +
                       std::to_string(vm.home),
                   obs::TraceArgs{H(vm.home), V(vid)});
  }
  if (failed & (1u << kResidencyLocation)) {
    checker.Report(kVmRuleIds[kResidencyLocation], now,
                   "VM " + std::to_string(vid) +
                       " residency/location mismatch: "
                       "home=" +
                       std::to_string(vm.home) + " location=" + std::to_string(vm.location),
                   at_location);
  }
  if (failed & (1u << kWsFetch)) {
    checker.Report(kVmRuleIds[kWsFetch], now,
                   "VM " + std::to_string(vid) + " has " + std::to_string(vm.ws_unfetched) +
                       " B unfetched of a " + std::to_string(vm.ws_bytes) + " B working set",
                   obs::TraceArgs{H(vm.location), V(vid), static_cast<int64_t>(vm.ws_unfetched)});
  }
  if (failed & (1u << kFullVmNoPartialState)) {
    checker.Report(kVmRuleIds[kFullVmNoPartialState], now,
                   "full VM " + std::to_string(vid) + " still carries ws=" +
                       std::to_string(vm.ws_bytes) + " B unfetched=" +
                       std::to_string(vm.ws_unfetched) + " B dirty=" +
                       std::to_string(vm.dirty_bytes) + " B",
                   at_location);
  }
  if (failed & (1u << kDirtyWithinCap)) {
    checker.Report(kVmRuleIds[kDirtyWithinCap], now,
                   "VM " + std::to_string(vid) + " dirtied " + std::to_string(vm.dirty_bytes) +
                       " B past the cap of " + std::to_string(dirty_cap) + " B",
                   obs::TraceArgs{H(vm.location), V(vid), static_cast<int64_t>(vm.dirty_bytes)});
  }
  if (failed & (1u << kMigrationPaired)) {
    checker.Report(kVmRuleIds[kMigrationPaired], now,
                   "VM " + std::to_string(vid) + " migration_in_flight=" +
                       (vm.migration_in_flight ? "true" : "false") +
                       " disagrees with pending_op",
                   at_location);
  }
}

// Cold path of the resident pass: re-walks the set of a host that names an
// unknown VM or a VM whose location is elsewhere.
[[gnu::noinline, gnu::cold]] void ReportResidents(check::InvariantChecker& checker,
                                                  SimTime now, const ClusterHost& host,
                                                  const std::vector<VmSlot>& vms) {
  for (VmId vid : host.vms()) {
    if (static_cast<size_t>(vid) >= vms.size()) {
      checker.Report(kVmIdInRange, now, "host set names unknown VM " + std::to_string(vid),
                     obs::TraceArgs{H(host.id()), V(vid)});
      continue;
    }
    const VmSlot& vm = vms[vid];
    if (vm.location != host.id()) {
      checker.Report(kLocationMatchesResidency, now,
                     "VM " + std::to_string(vid) + " resident on host " +
                         std::to_string(host.id()) + " but location says " +
                         std::to_string(vm.location),
                     obs::TraceArgs{H(host.id()), V(vid)});
    }
  }
}

// The values the per-host rules compared, kept for the cold path's details.
struct HostReading {
  int active_here;
  uint64_t reserved_expected;
  double suspend_s;
  double lo;
  double hi;
  double host_energy;
  double ms_energy;
  double ms_hi;
};

// Cold path of the per-host rules: reports each rule set in `failed`.
[[gnu::noinline, gnu::cold]] void ReportHost(check::InvariantChecker& checker, SimTime now,
                                             unsigned failed, const ClusterHost& host,
                                             const HostReading& r) {
  const std::string name = "host " + std::to_string(host.id());
  const obs::TraceArgs at_host{H(host.id())};
  if (failed & (1u << kActiveCount)) {
    checker.Report(kHostRuleIds[kActiveCount], now,
                   name + " counts " + std::to_string(host.active_vms()) +
                       " active VMs, walk found " + std::to_string(r.active_here),
                   at_host);
  }
  if (failed & (1u << kReservation)) {
    checker.Report(kHostRuleIds[kReservation], now,
                   name + " reserves " + std::to_string(host.reserved_bytes()) +
                       " B but resident footprints sum to " +
                       std::to_string(r.reserved_expected) + " B",
                   obs::TraceArgs{H(host.id()), -1,
                                  static_cast<int64_t>(host.reserved_bytes())});
  }
  if (failed & (1u << kCapacity)) {
    checker.Report(kHostRuleIds[kCapacity], now,
                   name + " reserves " + std::to_string(host.reserved_bytes()) + " B of " +
                       std::to_string(host.capacity_bytes()) + " B capacity",
                   at_host);
  }
  if (failed & (1u << kMsOnHomes)) {
    checker.Report(kHostRuleIds[kMsOnHomes], now,
                   "consolidation " + name + " has a powered memory server", at_host);
  }
  if (failed & (1u << kLedgerCovers)) {
    checker.Report(kHostRuleIds[kLedgerCovers], now,
                   name + " ledger covers " +
                       std::to_string(host.ledger().TotalTimeAt(now).micros()) + " us of " +
                       std::to_string(now.micros()) + " us",
                   at_host);
  }
  if (failed & (1u << kS3Incapable)) {
    checker.Report(kHostRuleIds[kS3Incapable], now,
                   name + " is s3_capable=false but spent " + std::to_string(r.suspend_s) +
                       " s in kSuspending",
                   at_host);
  }
  if (failed & (1u << kEnergy)) {
    checker.Report(kHostRuleIds[kEnergy], now,
                   name + " energy " + std::to_string(r.host_energy) +
                       " J outside the model envelope [" + std::to_string(r.lo) + ", " +
                       std::to_string(r.hi) + "] J",
                   at_host);
  }
  if (failed & (1u << kMsEnergy)) {
    checker.Report(kHostRuleIds[kMsEnergy], now,
                   name + " memory server energy " + std::to_string(r.ms_energy) +
                       " J outside [0, " + std::to_string(r.ms_hi) + "] J",
                   at_host);
  }
}

// One maintained aggregate against its recount: one check per host, and a
// report for every host where they differ.
void ExpectExact(check::InvariantChecker::Tally& tally, check::InvariantChecker& checker,
                 SimTime now, const char* invariant, const char* what,
                 const std::vector<int>& maintained, const std::vector<int>& derived) {
  const size_t num_hosts = derived.size();
  tally.Count(invariant, num_hosts);
  if (std::equal(derived.begin(), derived.end(), maintained.begin())) {
    return;
  }
  for (size_t h = 0; h < num_hosts; ++h) {
    if (maintained[h] != derived[h]) {
      checker.Report(invariant, now,
                     "host " + std::to_string(h) + " " + what + " counter says " +
                         std::to_string(maintained[h]) + ", walk found " +
                         std::to_string(derived[h]),
                     obs::TraceArgs{static_cast<int64_t>(h), -1, maintained[h]});
    }
  }
}

}  // namespace

void ClusterInvariantWalk::Run(const ClusterManager& manager, SimTime now,
                               check::InvariantChecker& checker) {
  const ClusterConfig& config = manager.config();
  const ClusterState& state = manager.state();
  const std::vector<VmSlot>& vms = state.vms;
  const size_t num_hosts = state.hosts.size();
  const size_t num_vms = vms.size();
  const uint64_t dirty_cap = config.volumes.dirty_cap_bytes;
  // The tally adds the walk's checks to the shared counter once, when the
  // walk returns.
  check::InvariantChecker::Tally tally(checker);

  is_home_.resize(num_hosts);
  for (size_t h = 0; h < num_hosts; ++h) {
    is_home_[h] = state.hosts[h]->IsHomeHost() ? 1 : 0;
  }
  home_full_bytes_.assign(num_hosts, 0);
  partials_homed_.assign(num_hosts, 0);
  fac_homed_.assign(num_hosts, 0);
  inflight_residents_.assign(num_hosts, 0);
  partial_residents_.assign(num_hosts, 0);
  residencies_.assign(num_vms, 0);

  // --- VM pass: aggregate recounts and the per-VM state machine -------------
  // Each home's full reservation for its own VMs and from-scratch recounts
  // of the aggregates the Actuator maintains in ClusterState; a VM naming an
  // unknown host is left out of them (its rules below report it).
  for (size_t v = 0; v < num_vms; ++v) {
    const VmSlot& vm = vms[v];
    const bool home_in_range = static_cast<size_t>(vm.home) < num_hosts;
    const bool location_in_range = static_cast<size_t>(vm.location) < num_hosts;
    const bool partial = vm.residency == VmResidency::kPartial;
    if (home_in_range && location_in_range) {
      home_full_bytes_[vm.home] += vm.full_bytes;
      if (partial) {
        ++partials_homed_[vm.home];
        ++partial_residents_[vm.location];
      } else if (vm.residency == VmResidency::kFullAtConsolidation) {
        ++fac_homed_[vm.home];
      }
      if (vm.migration_in_flight) {
        ++inflight_residents_[vm.location];
      }
    }
    // A VM at home runs on its home; a partial or full-at-consolidation VM
    // runs on a consolidation host.
    const bool location_legal = vm.residency == VmResidency::kFullAtHome
                                    ? vm.location == vm.home
                                    : location_in_range && is_home_[vm.location] == 0;
    const unsigned failed =
        FailBit(!(home_in_range && is_home_[vm.home] != 0), kHomeIsHome) |
        FailBit(!location_legal, kResidencyLocation) |
        FailBit(vm.ws_unfetched > vm.ws_bytes, kWsFetch) |
        FailBit(!partial && (vm.ws_bytes | vm.ws_unfetched | vm.dirty_bytes) != 0,
                kFullVmNoPartialState) |
        FailBit(vm.dirty_bytes > dirty_cap, kDirtyWithinCap) |
        FailBit(vm.migration_in_flight != (vm.pending_op != VmSlot::PendingOp::kNone),
                kMigrationPaired);
    if (failed != 0) {
      ReportVm(checker, now, failed, static_cast<VmId>(v), vm, dirty_cap);
    }
  }
  for (const char* rule : kVmRuleIds) {
    tally.Count(rule, num_vms);
  }

  // --- resident pass, then each host's rules --------------------------------
  const double ms_hi = config.memory_server_power.TotalWatts() * now.seconds();
  size_t residents = 0;
  size_t residents_in_range = 0;
  for (size_t h = 0; h < num_hosts; ++h) {
    const ClusterHost& host = *state.hosts[h];
    const bool consolidation = is_home_[h] == 0;
    // Homes carry their own VMs' full reservation whether or not the VM is
    // away (the §3.2 capacity guarantee); a resident foreign VM only
    // appears on consolidation hosts.
    HostReading r{};
    r.reserved_expected = consolidation ? 0 : home_full_bytes_[h];
    bool residents_ok = true;
    size_t in_range = 0;
    for (VmId vid : host.vms()) {
      if (static_cast<size_t>(vid) >= num_vms) {
        residents_ok = false;
        continue;
      }
      ++in_range;
      ++residencies_[vid];
      const VmSlot& vm = vms[vid];
      residents_ok &= vm.location == host.id();
      r.active_here += vm.activity == VmActivity::kActive;
      if (consolidation) {
        r.reserved_expected += vm.ReservedBytes();
      }
    }
    residents += host.vms().size();
    residents_in_range += in_range;
    if (!residents_ok) {
      ReportResidents(checker, now, host, vms);
    }

    // Time and energy accounting. The per-state ledger must cover the run
    // to the microsecond (integer arithmetic, so exactly), and the meter's
    // integral must sit inside the envelope the power model allows for that
    // state mix: powered draw is bounded by the idle and 20-VM
    // measurements, the transition and sleep states are fixed draws. The
    // bounds come from the host's *own* resolved profile, so the envelope
    // stays exact on heterogeneous fleets. An S3-incapable host must never
    // have spent a microsecond suspending -- the transition itself also
    // reports, this walk catches any path that skipped Transition's gate.
    const HostPowerProfile& p = host.power_profile();
    const StateTimeLedger& ledger = host.ledger();
    double powered_s = ledger.TimeInAt(HostPowerState::kPowered, now).seconds();
    r.suspend_s = ledger.TimeInAt(HostPowerState::kSuspending, now).seconds();
    double resume_s = ledger.TimeInAt(HostPowerState::kResuming, now).seconds();
    double sleep_s = ledger.TimeInAt(HostPowerState::kSleeping, now).seconds();
    double fixed = r.suspend_s * p.suspend_watts + resume_s * p.resume_watts +
                   sleep_s * p.sleep_watts;
    r.lo = fixed + powered_s * p.idle_watts;
    r.hi = fixed + powered_s * p.watts_at_20_vms;
    r.host_energy = host.HostEnergyAt(now);
    r.ms_energy = host.MemoryServerEnergyAt(now);
    r.ms_hi = ms_hi;
    const unsigned failed =
        FailBit(host.active_vms() != r.active_here, kActiveCount) |
        FailBit(host.reserved_bytes() != r.reserved_expected, kReservation) |
        FailBit(host.reserved_bytes() > host.capacity_bytes(), kCapacity) |
        FailBit(host.memory_server_powered() && consolidation, kMsOnHomes) |
        FailBit(ledger.TotalTimeAt(now) != now, kLedgerCovers) |
        FailBit(!host.s3_capable() && r.suspend_s != 0.0, kS3Incapable) |
        FailBit(!WithinEnvelope(r.host_energy, r.lo, r.hi), kEnergy) |
        FailBit(!WithinEnvelope(r.ms_energy, 0.0, ms_hi), kMsEnergy);
    if (failed != 0) {
      ReportHost(checker, now, failed, host, r);
    }
  }
  tally.Count(kVmIdInRange, residents);
  tally.Count(kLocationMatchesResidency, residents_in_range);
  for (const char* rule : kHostRuleIds) {
    tally.Count(rule, num_hosts);
  }

  // --- aggregate rules ------------------------------------------------------
  // The Actuator adjusts these at every write of a VM's residency, in-flight
  // flag or location; comparing them with the recount above catches a missed
  // or double-counted write within one planning round.
  ExpectExact(tally, checker, now, "cluster.partials_homed_counter_exact", "partials-homed",
              state.partials_homed, partials_homed_);
  ExpectExact(tally, checker, now, "cluster.fac_homed_exact", "full-at-consolidation-homed",
              state.fac_homed, fac_homed_);
  ExpectExact(tally, checker, now, "cluster.inflight_residents_exact", "in-flight-residents",
              state.inflight_residents, inflight_residents_);
  ExpectExact(tally, checker, now, "cluster.partial_residents_exact", "partial-residents",
              state.partial_residents, partial_residents_);
  // Every VM resident on exactly one host.
  tally.Count(kVmOnExactlyOneHost, num_vms);
  bool partitioned = true;
  for (uint32_t count : residencies_) {
    partitioned &= count == 1;
  }
  if (!partitioned) {
    for (size_t v = 0; v < num_vms; ++v) {
      if (residencies_[v] != 1) {
        checker.Report(kVmOnExactlyOneHost, now,
                       "VM " + std::to_string(v) + " resident on " +
                           std::to_string(residencies_[v]) + " hosts",
                       obs::TraceArgs{H(vms[v].location), V(static_cast<VmId>(v))});
      }
    }
  }
}

void CheckClusterInvariants(const ClusterManager& manager, SimTime now,
                            check::InvariantChecker& checker) {
  ClusterInvariantWalk().Run(manager, now, checker);
}

}  // namespace oasis
