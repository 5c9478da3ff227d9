// Sharded datacenter hierarchy: pods -> racks -> hosts.
//
// A DatacenterTopology turns one DatacenterConfig into a flat, pod-major
// list of RackSpecs. Every rack is a self-contained, paper-shaped cluster (a
// PaperCluster-style SimulationConfig) with its own seed-derived trace
// population, so rack simulations are mutually independent by construction:
// no shared RNG stream, no shared state, no cross-rack event. That
// independence is what lets the ShardRunner (src/dc/runner.h) execute racks
// as parallel tasks with bit-identical results at any OASIS_JOBS, and what
// keeps the GlobalCoordinator (src/dc/coordinator.h) an overlay tier that
// only ever acts *between* racks, never inside one.
//
// Determinism contract (DESIGN.md, "Datacenter hierarchy"):
//   * rack seeds derive from (config.seed, rack index) via a SplitMix64
//     finalizer — stable across pod shape, rack-count overrides and
//     execution order;
//   * topology order is pod-major ascending rack index; every consumer that
//     folds per-rack data (ledger, coordinator, obs merge) walks that order.

#ifndef OASIS_SRC_DC_TOPOLOGY_H_
#define OASIS_SRC_DC_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/strategy.h"
#include "src/core/oasis.h"
#include "src/dc/coordinator.h"

namespace oasis {
namespace dc {

// The per-rack cluster shape every rack in the datacenter shares. Racks
// differ only in their seed (and therefore their simulated user population
// and fault schedule), exactly like repeated runs of one experiment config.
struct RackShape {
  int home_hosts = 30;
  int consolidation_hosts = 4;
  // Routed through ClusterConfig::SetVmsPerHome, so host capacity (and,
  // capacity-proportionally, host power) scales with density.
  int vms_per_home = 30;
  ConsolidationPolicy policy = ConsolidationPolicy::kFullToPartial;
  std::string strategy_name = kDefaultStrategyName;  // the rack-local planner
  DayKind day = DayKind::kWeekday;
  // Per-rack deterministic fault injection; the plan is sampled from the
  // rack seed, so every rack gets its own fault schedule.
  FaultConfig fault;

  int users() const { return home_hosts * vms_per_home; }
  int hosts() const { return home_hosts + consolidation_hosts; }
};

struct DatacenterConfig {
  // total_racks racks packed pod-major into pods of racks_per_pod (the last
  // pod may be partial).
  int total_racks = 256;
  int racks_per_pod = 32;
  RackShape rack;
  // Heterogeneous fleets: when non-empty, pod p's racks are built entirely
  // from host generation pod_generations[p % size()] (names from the
  // src/power catalog — datacenters buy hardware by the pod). Empty keeps
  // every rack on the uniform config.host_power template, byte-identical to
  // the pre-fleet topology. A rack's generation depends only on its own
  // index and racks_per_pod — never on total_racks — so small
  // OASIS_DC_RACKS grids stay exact prefixes of the full datacenter, seeds
  // and hardware alike.
  std::vector<std::string> pod_generations;
  uint64_t seed = 20160418;
  CoordinatorConfig coordinator;

  int NumPods() const {
    return racks_per_pod > 0 ? (total_racks + racks_per_pod - 1) / racks_per_pod : 0;
  }
  int TotalHosts() const { return total_racks * rack.hosts(); }
  // One VDI user per VM.
  long long TotalUsers() const {
    return static_cast<long long>(total_racks) * rack.users();
  }

  Status Validate() const;
};

// One rack, fully resolved: its position in the hierarchy and the exact
// SimulationConfig its shard executes.
struct RackSpec {
  int rack = 0;  // global index == position in topology order
  int pod = 0;
  SimulationConfig sim;
};

class DatacenterTopology {
 public:
  // Validates `config` and expands it into pod-major RackSpecs.
  static StatusOr<DatacenterTopology> Build(const DatacenterConfig& config);

  // SplitMix64 finalizer over (base, rack): well-mixed, stable, and
  // independent of how many racks exist — rack 7 of a 8-rack smoke grid
  // simulates the identical day as rack 7 of the 256-rack datacenter.
  static uint64_t RackSeed(uint64_t base, int rack);

  const DatacenterConfig& config() const { return config_; }
  const std::vector<RackSpec>& racks() const { return racks_; }

 private:
  DatacenterConfig config_;
  std::vector<RackSpec> racks_;
};

}  // namespace dc
}  // namespace oasis

#endif  // OASIS_SRC_DC_TOPOLOGY_H_
