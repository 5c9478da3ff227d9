// The deterministic parallel experiment runner.
//
// Every bench/example main used to loop over SimulationConfigs and call
// ClusterSimulation::Run() serially. This module keeps the exact observable
// behaviour of that loop — including byte-identical stdout, CSV exports,
// trace files and metric values — while executing the independent runs on a
// work-stealing thread pool:
//
//   oasis::exp::ExperimentPlan plan;
//   auto span = plan.AddRepetitions(config, 5);   // seeds derived per rep
//   auto results = oasis::exp::RunParallel(plan, jobs);  // `jobs` workers
//   auto agg = oasis::exp::CollectRepeated(results, span);
//
// The determinism contract (DESIGN.md § Performance & parallel experiments):
//   * each planned run is an independent simulation with a seed fixed at
//     plan-build time; execution order cannot influence any run's result;
//   * every run collects trace/metrics into a run-local obs::RunContext;
//     after all runs finish, contexts merge into the process-global
//     collectors serially, in plan order;
//   * aggregation (CollectRepeated) folds results in plan order, so the
//     floating-point reduction order matches the serial loop exactly;
//   * jobs <= 1 executes the runs inline on the calling thread with no
//     contexts at all — the exact legacy code path.
// Under those rules the output is byte-identical for every job count.

#ifndef OASIS_SRC_EXP_EXP_H_
#define OASIS_SRC_EXP_EXP_H_

#include <cstdint>
#include <vector>

#include "src/core/oasis.h"

namespace oasis {
namespace exp {

// One entry of an ExperimentPlan: a fully-resolved SimulationConfig (seed
// already derived) plus where it sits in the plan.
struct PlannedRun {
  SimulationConfig config;
  int repetition = 0;  // index within its AddRepetitions group (0 for Add)
  size_t index = 0;    // position in the plan == index into RunParallel's result
};

// The half-open group [first, first + count) that AddRepetitions appended.
struct RepetitionSpan {
  size_t first = 0;
  int count = 0;
};

class ExperimentPlan {
 public:
  // Appends one run with `config` exactly as given; returns its plan index.
  size_t Add(const SimulationConfig& config);

  // Appends `runs` repetitions of `config`, rep r seeded with
  // DeriveSeed(config.seed, r) — the same derivation oasis::RunRepeated has
  // always used, so aggregates reproduce the serial numbers bit-for-bit.
  RepetitionSpan AddRepetitions(const SimulationConfig& config, int runs);

  // seed_r = base + r * 0x9E3779B9 (golden-ratio stride, distinct streams).
  static uint64_t DeriveSeed(uint64_t base, int repetition);

  const std::vector<PlannedRun>& runs() const { return runs_; }
  size_t size() const { return runs_.size(); }
  bool empty() const { return runs_.empty(); }

 private:
  std::vector<PlannedRun> runs_;
};

// std::thread::hardware_concurrency(), at least 1.
int HardwareJobs();

// The worker count RunParallel actually uses when asked for `jobs` over
// `run_count` runs: clamped to the hardware (more workers than cores add
// scheduling churn without parallelism) and to the run count (extra workers
// would only idle), floor 1 (the serial inline path). Exposed so sweep
// harnesses can tell which requested job counts collapse to the same
// execution — on a 1-core host every jobs=N point is the same serial run.
int EffectiveWorkers(int jobs, size_t run_count);

// Executes every planned run and returns results indexed by plan position.
// jobs > 1: a ThreadPool of min(jobs, plan.size()) workers, one run-local
// obs::RunContext per run, contexts merged into the globals in plan order
// after the pool drains. jobs <= 1: the inline legacy loop.
std::vector<SimulationResult> RunParallel(const ExperimentPlan& plan, int jobs);

// Folds one repetition group of `results` into the RepeatedRunResult shape,
// adding to the OnlineStats in repetition order (the serial reduction
// order). Moves the group's SimulationResults out of `results`.
RepeatedRunResult CollectRepeated(std::vector<SimulationResult>& results,
                                  RepetitionSpan span);

// Drop-in parallel equivalent of oasis::RunRepeated(config, runs).
RepeatedRunResult RunRepeated(const SimulationConfig& config, int runs, int jobs);

}  // namespace exp
}  // namespace oasis

#endif  // OASIS_SRC_EXP_EXP_H_
