// Shared helpers for the table/figure reproduction harnesses.

#ifndef OASIS_BENCH_BENCH_UTIL_H_
#define OASIS_BENCH_BENCH_UTIL_H_

#include <fstream>
#include <memory>
#include <string>

#include "src/core/oasis.h"
#include "src/run/run_options.h"

namespace oasis {

// The paper's standard rack: 30 home hosts x 30 VMs plus N consolidation
// hosts (§5.1), under OASIS_SEED and OASIS_POLICY. Per-experiment
// strategy_name assignments made afterwards still win (the ablation harness
// relies on that).
inline SimulationConfig PaperCluster(const RunOptions& options, ConsolidationPolicy policy,
                                     int consolidation_hosts, DayKind day) {
  SimulationConfig config;
  config.cluster.num_home_hosts = 30;
  config.cluster.num_consolidation_hosts = consolidation_hosts;
  config.cluster.vms_per_home = 30;
  config.cluster.policy = policy;
  config.cluster.strategy_name = options.policy.value_or(config.cluster.strategy_name);
  config.day = day;
  config.seed = options.seed.value_or(20160418);  // EuroSys'16 opening day
  return config;
}

// When OASIS_CSV_DIR is set, benches also write their data series as
// <dir>/<name>.csv for external plotting. Returns nullptr otherwise.
inline std::unique_ptr<std::ofstream> CsvFileFor(const RunOptions& options,
                                                 const std::string& name) {
  if (options.csv_dir.empty()) {
    return nullptr;
  }
  auto file = std::make_unique<std::ofstream>(options.csv_dir + "/" + name + ".csv");
  if (!*file) {
    return nullptr;
  }
  return file;
}

inline const ConsolidationPolicy kAllPolicies[] = {
    ConsolidationPolicy::kOnlyPartial,
    ConsolidationPolicy::kDefault,
    ConsolidationPolicy::kFullToPartial,
    ConsolidationPolicy::kNewHome,
};

}  // namespace oasis

#endif  // OASIS_BENCH_BENCH_UTIL_H_
