// Migration mechanics: the byte counts and latencies of full (pre-copy live)
// migration, partial migration (memory upload + descriptor push), and
// reintegration.
//
// The micro-benchmarks (§4.4) compute these from page-granular MemoryImage
// state and the measured channel bandwidths; the cluster simulation (§5.1)
// uses the same model with the paper's conservative fixed parameters.

#ifndef OASIS_SRC_HYPER_MIGRATION_MODEL_H_
#define OASIS_SRC_HYPER_MIGRATION_MODEL_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/hyper/vm.h"
#include "src/net/link.h"

namespace oasis {

struct MigrationTimingConfig {
  // Effective pre-copy throughput: the §4.4 testbed migrates a 4 GiB VM over
  // GigE in 41 s. The cluster simulation instead takes §5.1's assumption of
  // 10 s per 4 GiB over 10 GigE (kLiveMigrationBytesPerSec). Both are the
  // paper's figures, not derived from a dirty-page model: no single dirty
  // rate reproduces both (EXPERIMENTS.md, deviations).
  double live_migration_bytes_per_sec = 4.0 * 1024 * kMiB / 41.0;

  // Memory upload writes compressed pages to the shared SAS drive.
  double upload_bytes_per_sec = kSasBytesPerSec;

  // Descriptor push: a fixed control-plane cost (create the partial VM,
  // initialize vCPUs, install page tables) plus the descriptor transfer.
  // §4.4.2: ~5.2 s total for a 16 MiB descriptor on GigE.
  SimTime descriptor_fixed_overhead = SimTime::Seconds(5.07);
  double descriptor_bytes_per_sec = kGigEBytesPerSec;

  // Reintegration pushes only dirty pages back and swaps page tables:
  // fixed overhead plus the dirty transfer. §4.4.2: 3.7 s average while
  // moving ~175 MiB.
  SimTime reintegration_fixed_overhead = SimTime::Seconds(2.2);
  double reintegration_bytes_per_sec = kGigEBytesPerSec;
};

struct FullMigrationPlan {
  uint64_t bytes = 0;  // the VM's entire allocation crosses the network
  SimTime duration;
};

struct PartialMigrationPlan {
  uint64_t upload_pages = 0;            // pages written to the memory server
  uint64_t upload_bytes_raw = 0;        // their uncompressed size
  uint64_t upload_bytes_compressed = 0; // what actually hits the SAS drive
  SimTime upload_time;
  uint64_t descriptor_bytes = 0;
  SimTime descriptor_time;
  SimTime total;
  bool differential = false;
};

struct ReintegrationPlan {
  uint64_t dirty_bytes = 0;
  SimTime duration;
};

class MigrationModel {
 public:
  explicit MigrationModel(const MigrationTimingConfig& config) : config_(config) {}
  MigrationModel() : MigrationModel(MigrationTimingConfig{}) {}

  const MigrationTimingConfig& config() const { return config_; }

  // Live migration of the VM's full memory allocation.
  FullMigrationPlan PlanFullMigration(uint64_t memory_bytes) const;

  // Partial migration of `vm`. Uploads the dirty-since-last-epoch set when
  // `differential` (the §4.3 optimization) or every touched page otherwise,
  // then pushes the descriptor. Consumes the image's dirty set.
  PartialMigrationPlan ExecutePartialMigration(Vm& vm, bool differential) const;

  // Latency/bytes of pushing `dirty_bytes` back to the VM's home.
  ReintegrationPlan PlanReintegration(uint64_t dirty_bytes) const;

 private:
  MigrationTimingConfig config_;
};

}  // namespace oasis

#endif  // OASIS_SRC_HYPER_MIGRATION_MODEL_H_
