// The paper's §3 consolidation algorithm as a pluggable strategy (the
// "oasis-greedy" registry entry, and the default).
//
// The planning passes run in the legacy monolithic manager's exact order —
// FulltoPartial swaps, power-gated vacate planning, incremental draining —
// and draw from the shared planning streams at the exact same points, so a
// run under this strategy is byte-identical to the pre-refactor manager.
//
// Wherever a per-VM walk would only count residents, the passes read the
// aggregates the Actuator maintains in ClusterState instead (see DESIGN.md,
// "Hot path"): a home with no full-at-consolidation VM has no swap
// candidates, a home with a resident in flight cannot be vacated, and a
// consolidation host is a drain source only when all its residents are
// partial and none is in flight. Everything else (power states, capacities,
// activity, idleness trust) is read live from the view.
//
// The class is exposed (rather than hidden behind its factory) so tests can
// call ComputeVacatePlan directly against a manager's view and assert on the
// power-delta gate without running a whole day.

#ifndef OASIS_SRC_CLUSTER_STRATEGY_OASIS_H_
#define OASIS_SRC_CLUSTER_STRATEGY_OASIS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/cluster/strategy.h"

namespace oasis {

class OasisGreedyStrategy : public ConsolidationStrategy {
 public:
  const char* name() const override { return kDefaultStrategyName; }
  PlanActions PlanInterval(const ClusterView& view, SimTime now, Actuator& act) override;

  // Builds (without committing) pass 2's vacate plan: every vacate-eligible
  // home as a candidate, each trusted-idle resident priced at a freshly
  // sampled working set, then PriceBestPlan. Draws from both planning
  // streams.
  VacatePlan ComputeVacatePlan(const ClusterView& view, SimTime now) const;

 protected:
  // The building blocks PredictiveStrategy composes with: candidate/dest
  // tables, the rng-drawing placement+pricing core, and the §3.1 gate.
  struct Candidate {
    HostId host;
    uint64_t demand;
  };
  struct Dest {
    HostId host;
    uint64_t available;
    int active_slots;  // CPU headroom for incoming active VMs
    bool sleeping;
    bool used = false;
  };

  // Places the (already demand-sorted) candidates twice — onto the powered
  // consolidation hosts only, and with spill onto sleeping ones allowed —
  // and returns whichever plan saves more power (ties keep the no-wake
  // plan). A nonzero planned_ws[vm] places that VM as a partial of that
  // many bytes.
  VacatePlan PriceBestPlan(const ClusterView& view, const std::vector<Candidate>& candidates,
                           const std::vector<uint64_t>& planned_ws) const;
  void MaybeCommitVacatePlan(SimTime now, Actuator& act, PlanActions& actions,
                             const VacatePlan& best) const;

 private:
  // Pass 1 decisions: (home, swap group) pairs in ascending home order.
  using SwapGroups = std::vector<std::pair<HostId, std::vector<VmId>>>;

  SwapGroups ComputeSwapGroups(const ClusterView& view, SimTime now) const;
  void ExecuteSwapGroups(const SwapGroups& groups, SimTime now, Actuator& act,
                         PlanActions& actions) const;
  // Places candidates onto a scratch copy of `dests` and prices the result.
  // The only code in pass 2 that draws from the planning rng.
  VacatePlan PlaceAndPrice(const ClusterView& view, const std::vector<Candidate>& candidates,
                           std::vector<Dest> dests, size_t powered_dests,
                           const std::vector<uint64_t>& planned_ws) const;
  HostId SelectDrainSource(const ClusterView& view, SimTime now) const;
  // Executes the incremental drain from `source_id` (kNoHost = nothing to
  // drain): the completion-feasibility gate plus the per-VM moves, whose
  // destination scans stay live because each move mutates the cluster.
  int ExecuteDrain(const ClusterView& view, SimTime now, Actuator& act,
                   HostId source_id) const;
};

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_STRATEGY_OASIS_H_
