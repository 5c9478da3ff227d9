#include "src/exp/exp.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "src/exp/thread_pool.h"
#include "src/obs/prof.h"
#include "src/obs/run_context.h"

namespace oasis {
namespace exp {

size_t ExperimentPlan::Add(const SimulationConfig& config) {
  PlannedRun run;
  run.config = config;
  run.repetition = 0;
  run.index = runs_.size();
  runs_.push_back(std::move(run));
  return runs_.back().index;
}

RepetitionSpan ExperimentPlan::AddRepetitions(const SimulationConfig& config, int runs) {
  RepetitionSpan span{runs_.size(), runs};
  for (int r = 0; r < runs; ++r) {
    PlannedRun run;
    run.config = config;
    run.config.seed = DeriveSeed(config.seed, r);
    run.repetition = r;
    run.index = runs_.size();
    runs_.push_back(std::move(run));
  }
  return span;
}

uint64_t ExperimentPlan::DeriveSeed(uint64_t base, int repetition) {
  return base + static_cast<uint64_t>(repetition) * 0x9E3779B9ull;
}

int HardwareJobs() {
  unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

int EffectiveWorkers(int jobs, size_t run_count) {
  // Workers beyond the hardware add scheduling churn without parallelism
  // (the profiler attributed the jobs=4 loss on small hosts to exactly
  // that); beyond the run count they would only idle. A one-worker pool is
  // pure overhead over the inline loop — and the plan-order merge contract
  // makes the two paths byte-identical — so it takes the serial path too.
  return std::max(1, std::min({jobs, HardwareJobs(), static_cast<int>(run_count)}));
}

std::vector<SimulationResult> RunParallel(const ExperimentPlan& plan, int jobs) {
  const std::vector<PlannedRun>& runs = plan.runs();
  std::vector<SimulationResult> results(runs.size());
  const int workers = EffectiveWorkers(jobs, runs.size());
  if (workers <= 1 || runs.size() <= 1) {
    // The legacy serial path: inline on this thread, straight into whatever
    // collectors are in effect (normally the process globals).
    prof::ProfScope prof_wall(prof::Phase::kRunParallel);
    if (prof::Profiler::Enabled()) {
      prof::Profiler::Instance().NoteJobs(1);
    }
    for (const PlannedRun& run : runs) {
      prof::ProfScope prof_run(prof::Phase::kRunSim);
      results[run.index] = ClusterSimulation(run.config).Run();
    }
    return results;
  }

  prof::ProfScope prof_wall(prof::Phase::kRunParallel);
  if (prof::Profiler::Enabled()) {
    prof::Profiler::Instance().NoteJobs(workers);
  }

  // One run-local context per run, created up-front on this thread so the
  // enable snapshot is taken once, before any worker races a concurrent
  // SetEnabled. This loop is serial overhead the profiler charges to
  // exp.run_setup (with one obs.run_context_ctor sample per context).
  // With both global collectors dark — the common bench configuration —
  // the contexts would collect nothing and merge nothing, so none are
  // built: every IfEnabled site stays null and the runs execute
  // context-free, exactly like the serial path with observability off.
  const bool collect = obs::Tracer::Global().enabled() ||
                       obs::MetricsRegistry::Global().enabled();
  std::vector<std::unique_ptr<obs::RunContext>> contexts(runs.size());
  {
    prof::ProfScope prof_setup(prof::Phase::kRunSetup);
    if (collect) {
      for (size_t i = 0; i < runs.size(); ++i) {
        prof::ProfScope prof_ctor(prof::Phase::kRunContextCtor);
        contexts[i] = std::make_unique<obs::RunContext>();
        contexts[i]->MirrorGlobalEnables();
      }
    }
  }

  {
    ThreadPool pool(workers);
    for (size_t i = 0; i < runs.size(); ++i) {
      pool.Submit([&runs, &results, &contexts, i]() {
        // The Scope reroutes instrumentation reached through thread-local
        // lookup (log sim-time, IfEnabled sites outside the manager); the
        // ctor argument covers the manager's own resolution.
        prof::ProfScope prof_run(prof::Phase::kRunSim);
        obs::RunContext::Scope scope(contexts[i].get());
        results[i] = ClusterSimulation(runs[i].config, contexts[i].get()).Run();
      });
    }
    pool.Wait();
  }

  // Serial plan-order merge: the global tracer sees run 0's events, then
  // run 1's, ... exactly as a serial execution would have recorded them, so
  // OASIS_TRACE / OASIS_METRICS exports are byte-identical. This is the
  // serial tail Amdahl charges against scaling; the profiler reports its
  // share of wall time as merge_serial_fraction.
  {
    prof::ProfScope prof_merge(prof::Phase::kRunMerge);
    for (size_t i = 0; i < runs.size(); ++i) {
      if (contexts[i] != nullptr) {
        contexts[i]->MergeIntoGlobals();
      }
    }
  }
  return results;
}

RepeatedRunResult CollectRepeated(std::vector<SimulationResult>& results,
                                  RepetitionSpan span) {
  RepeatedRunResult out;
  for (int r = 0; r < span.count; ++r) {
    SimulationResult& result = results[span.first + static_cast<size_t>(r)];
    out.savings.Add(result.metrics.EnergySavings());
    out.total_energy_kwh.Add(ToKWh(result.metrics.TotalEnergy()));
    out.baseline_energy_kwh.Add(ToKWh(result.metrics.baseline_energy));
    out.runs.push_back(std::move(result));
  }
  return out;
}

RepeatedRunResult RunRepeated(const SimulationConfig& config, int runs, int jobs) {
  ExperimentPlan plan;
  RepetitionSpan span = plan.AddRepetitions(config, runs);
  std::vector<SimulationResult> results = RunParallel(plan, jobs);
  return CollectRepeated(results, span);
}

}  // namespace exp
}  // namespace oasis
