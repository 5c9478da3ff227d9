// The cluster-wide invariant walk.
//
// ClusterInvariantWalk takes a read-only snapshot of a ClusterManager mid-
// run and asserts the conservation laws the paper's evaluation rests on:
// every VM resident on exactly one host, reservations balancing the resident
// footprints, working-set/dirty byte accounting within its caps, power-state
// ledgers covering the full simulated time to the microsecond, each host's
// energy integral inside the envelope its power profile allows, and every
// aggregate the Actuator maintains in ClusterState equal to a from-scratch
// recount over the VM table. The manager runs it once per planning interval
// and once at end of run when a check::InvariantChecker is installed; the
// walk only reads the cluster, so enabling it never changes simulation
// results.
//
// The walk makes three passes: one over the VM table (recounting the
// aggregates and evaluating the per-VM rules), one over each host's
// resident set (followed by that host's rules), and one comparing the
// recounted aggregates with the maintained ones. Each rule's outcomes are
// combined in the loop and its checks are added to the tally in bulk; only
// a failing VM or host takes the cold path that formats and reports the
// violation. The scratch tables live in the walk object, so a manager that
// keeps one walk allocates nothing per round.

#ifndef OASIS_SRC_CLUSTER_INVARIANTS_H_
#define OASIS_SRC_CLUSTER_INVARIANTS_H_

#include <cstdint>
#include <vector>

#include "src/check/check.h"
#include "src/common/units.h"

namespace oasis {

class ClusterManager;

class ClusterInvariantWalk {
 public:
  // Walks `manager` at `now`: runs 9 checks per VM and 12 per host on a
  // consistent cluster, adds them to `checker` once, and reports every
  // failed rule with its id, detail and args.
  void Run(const ClusterManager& manager, SimTime now, check::InvariantChecker& checker);

 private:
  // Per host.
  std::vector<uint8_t> is_home_;
  std::vector<uint64_t> home_full_bytes_;
  std::vector<int> partials_homed_;
  std::vector<int> fac_homed_;
  std::vector<int> inflight_residents_;
  std::vector<int> partial_residents_;
  // Per VM: how many host sets name it.
  std::vector<uint32_t> residencies_;
};

// A one-off walk with fresh scratch, for tests and end-of-run callers
// without a walk of their own.
void CheckClusterInvariants(const ClusterManager& manager, SimTime now,
                            check::InvariantChecker& checker);

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_INVARIANTS_H_
