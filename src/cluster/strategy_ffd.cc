// "first-fit-decreasing": classic static bin-packing as a consolidation
// policy, for ablation against the paper's greedy algorithm.
//
// Once per interval it gathers every home whose VMs are ALL trusted-idle
// (it never migrates a VM in full, like OnlyPartial), sorts the sampled
// working sets of all their VMs decreasing, and first-fits them onto the
// consolidation hosts in id order. Packing is all-or-nothing per home: a
// home with any unplaceable VM is dropped from the plan. Dropped homes'
// bin space is deliberately not refunded — this is a single-pass packer,
// and under-counting free space only makes the surviving placements more
// feasible, never less. The whole plan then stands behind the same §3.1
// net-power gate the greedy strategy uses.
//
// It performs no full-to-partial swaps and no draining, so compared with
// "oasis-greedy" it consolidates less often but with tighter packings.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/cluster/actuator.h"
#include "src/cluster/power_delta.h"
#include "src/cluster/strategy.h"

namespace oasis {
namespace {

class FirstFitDecreasingStrategy : public ConsolidationStrategy {
 public:
  const char* name() const override { return "first-fit-decreasing"; }

  PlanActions PlanInterval(const ClusterView& view, SimTime now, Actuator& act) override {
    PlanActions actions;

    // Eligible homes: powered, S3-capable (a home that cannot sleep saves
    // nothing by being packed away), occupied, every resident settled here
    // and trusted-idle. Sample each VM's working set in deterministic order
    // (homes by id, residents in set order) as we go.
    struct Item {
      VmId vm;
      HostId home;
      uint64_t ws;
    };
    std::vector<HostId> homes;
    std::vector<Item> items;
    for (size_t h = 0; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (!host.IsHomeHost() || !host.IsPowered() || !host.HasVms() ||
          !host.s3_capable()) {
        continue;
      }
      bool eligible = true;
      for (VmId id : host.vms()) {
        const VmSlot& vm = view.vm(id);
        if (vm.migration_in_flight || vm.location != host.id() ||
            !view.TrustedIdle(vm, now)) {
          eligible = false;
          break;
        }
      }
      if (!eligible) {
        continue;
      }
      homes.push_back(host.id());
      for (VmId id : host.vms()) {
        items.push_back({id, host.id(), view.SampleWorkingSet()});
      }
    }
    if (homes.empty()) {
      return actions;
    }
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.ws != b.ws ? a.ws > b.ws : a.vm < b.vm;
    });

    // Bins: consolidation hosts in id order with their live free space.
    // Every item is idle, so CPU slots never constrain the packing.
    struct Bin {
      HostId host;
      uint64_t available;
      bool sleeping;
      bool woken_by_survivor = false;
    };
    std::vector<Bin> bins;
    for (size_t h = 0; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (!host.IsConsolidationHost()) {
        continue;
      }
      bool awake = host.IsPowered() || host.power_state() == HostPowerState::kResuming;
      bins.push_back({host.id(), host.AvailableBytes(), !awake});
    }

    // Each packed VM's bin and sampled bytes, and which homes had every VM
    // packed: flat per-VM and per-host tables, reused across rounds.
    dest_bin_.assign(view.num_vms(), kUnplaced);
    ws_of_.resize(view.num_vms());
    home_complete_.assign(view.num_hosts(), 0);
    for (HostId home : homes) {
      home_complete_[home] = 1;
    }
    for (const Item& item : items) {
      ws_of_[item.vm] = item.ws;
      bool placed = false;
      for (size_t b = 0; b < bins.size(); ++b) {
        if (bins[b].available >= item.ws) {
          bins[b].available -= item.ws;
          dest_bin_[item.vm] = static_cast<uint32_t>(b);
          placed = true;
          break;
        }
      }
      if (!placed) {
        home_complete_[item.home] = 0;
      }
    }

    // Assemble the surviving (fully placed) homes, and mark which bins the
    // survivors actually wake: a bin used only by dropped homes costs
    // nothing.
    VacatePlan plan;
    for (HostId home : homes) {
      if (home_complete_[home] == 0) {
        continue;
      }
      std::vector<VacatePlacement> placements;
      for (VmId id : view.host(home).vms()) {
        if (dest_bin_[id] == kUnplaced) {
          continue;  // packed before its home was dropped; unreachable here
        }
        Bin& bin = bins[dest_bin_[id]];
        if (bin.sleeping) {
          bin.woken_by_survivor = true;
        }
        placements.push_back({id, bin.host, /*as_partial=*/true, ws_of_[id]});
      }
      plan.hosts_to_vacate.push_back(home);
      plan.placements.push_back(std::move(placements));
    }

    // The same §3.1 gate as the greedy strategy, priced per host profile:
    // commit only when the plan saves power net of the consolidation hosts
    // it wakes (power_delta.h keeps the homogeneous fold bit-identical to
    // the old single-profile arithmetic). The accumulator counts per profile
    // class, so the order woken bins are added in does not change the sum.
    power_delta::DeltaAccumulator delta(view);
    for (HostId home : plan.hosts_to_vacate) {
      delta.AddVacatedHome(home);
    }
    for (const Bin& bin : bins) {
      if (bin.woken_by_survivor) {
        delta.AddWokenConsolidationHost(bin.host);
      }
    }
    plan.newly_woken_consolidation_hosts = delta.total_woken();
    plan.net_power_delta_watts = delta.NetWatts();
    if (plan.net_power_delta_watts <= 0.0 || plan.hosts_to_vacate.empty()) {
      return actions;
    }
    act.CommitVacatePlan(now, plan);
    actions.vacated_hosts += static_cast<int>(plan.hosts_to_vacate.size());
    for (const auto& placements : plan.placements) {
      actions.vacate_moves += static_cast<int>(placements.size());
    }
    actions.committed_power_delta_watts += plan.net_power_delta_watts;
    return actions;
  }

 private:
  static constexpr uint32_t kUnplaced = UINT32_MAX;
  std::vector<uint32_t> dest_bin_;      // per VM: index into this round's bins
  std::vector<uint64_t> ws_of_;         // per VM: its sampled working set
  std::vector<uint8_t> home_complete_;  // per host: every VM packed
};

}  // namespace

std::unique_ptr<ConsolidationStrategy> MakeFirstFitDecreasingStrategy() {
  return std::make_unique<FirstFitDecreasingStrategy>();
}

}  // namespace oasis
