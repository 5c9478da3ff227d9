// ShardRunner: execute every rack of a DatacenterTopology as a task on the
// existing exp::ThreadPool, one obs::RunContext per shard, contexts merged
// into the process-global collectors in topology order.
//
// This is the datacenter-scale twin of exp::RunParallel. The differences:
//   * the unit of work is a rack (a whole PaperCluster-style day), and the
//     result keeps each rack's position in the hierarchy;
//   * per-shard observability merges under a per-rack metrics namespace
//     ("dc.rack<i>."), so a merged registry still tells racks apart —
//     obs::MetricsRegistry::MergeFrom(other, prefix) exists for this. The
//     namespace applies at every job count (the serial path builds the same
//     run-local contexts when a global collector is enabled), so
//     OASIS_METRICS exports are byte-identical across OASIS_JOBS;
//   * jobs <= 1 runs the racks inline on the calling thread, skipping only
//     the thread pool, never the namespacing.
//
// Determinism contract: rack simulations share no state, contexts merge in
// topology order, and ClusterMetrics are folded nowhere here — so the
// DatacenterRun (and everything computed from it: ledger, coordinator,
// digests) is bit-identical at any OASIS_JOBS and any execution order.

#ifndef OASIS_SRC_DC_RUNNER_H_
#define OASIS_SRC_DC_RUNNER_H_

#include <cstdint>
#include <vector>

#include "src/cluster/metrics.h"
#include "src/dc/topology.h"
#include "src/exp/exp.h"

namespace oasis {
namespace dc {

// One simulated rack-day, with its place in the hierarchy.
struct RackResult {
  int rack = 0;
  int pod = 0;
  uint64_t seed = 0;  // the SplitMix64-derived seed the shard ran with
  ClusterMetrics metrics;
};

// Every rack's result, in topology order (ascending rack index). The
// coordinator and ledger both take this as their sole input.
struct DatacenterRun {
  DatacenterConfig config;
  std::vector<RackResult> racks;
};

class ShardRunner {
 public:
  explicit ShardRunner(int jobs) : jobs_(jobs) {}

  // Simulates every rack and returns the results in topology order.
  DatacenterRun Run(const DatacenterTopology& topology) const;

  int jobs() const { return jobs_; }

 private:
  int jobs_ = 1;
};

}  // namespace dc
}  // namespace oasis

#endif  // OASIS_SRC_DC_RUNNER_H_
