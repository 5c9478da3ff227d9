// The three benchmark workloads. Each one generates its inputs from the
// seed, then times closed-loop calls into the libraries' public entry points:
// ClusterManager (ctor + Run), OfflineOracle::Solve, InvariantChecker::Install
// and the dc tier (DatacenterTopology::Build, ShardRunner::Run,
// GlobalCoordinator::Coordinate, DatacenterLedger::Build).

#include <algorithm>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.h"
#include "src/cluster/manager.h"
#include "src/cluster/oracle.h"
#include "src/cluster/strategy.h"
#include "src/dc/coordinator.h"
#include "src/dc/ledger.h"
#include "src/dc/runner.h"
#include "src/dc/topology.h"
#include "src/exp/exp.h"
#include "src/trace/trace_generator.h"

namespace oasisbench {

using oasis::ClusterConfig;
using oasis::ClusterMetrics;
using oasis::TraceSet;
using oasis::TrafficCategory;
using oasis::check::InvariantChecker;

namespace {

class Fnv {
 public:
  void Fold(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Fold(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Fold(bits);
  }
  void Fold(const TraceSet& trace) {
    for (const oasis::UserDay& day : trace) {
      for (bool bit : day.bits()) {
        Fold(static_cast<uint64_t>(bit));
      }
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// FNV-1a over every observable field of a rack-day's metrics.
uint64_t DigestMetrics(const ClusterMetrics& m) {
  Fnv fnv;
  fnv.Fold(m.home_host_energy);
  fnv.Fold(m.consolidation_host_energy);
  fnv.Fold(m.memory_server_energy);
  fnv.Fold(m.baseline_energy);
  for (const oasis::IntervalSnapshot& s : m.timeline) {
    fnv.Fold(static_cast<uint64_t>(s.time.micros()));
    fnv.Fold(static_cast<uint64_t>(s.active_vms));
    fnv.Fold(static_cast<uint64_t>(s.powered_home_hosts));
    fnv.Fold(static_cast<uint64_t>(s.powered_consolidation_hosts));
    fnv.Fold(static_cast<uint64_t>(s.partial_vms));
    fnv.Fold(static_cast<uint64_t>(s.full_at_consolidation_vms));
  }
  for (double sample : m.consolidation_ratio.sorted_samples()) {
    fnv.Fold(sample);
  }
  for (double sample : m.transition_delay_s.sorted_samples()) {
    fnv.Fold(sample);
  }
  for (int c = 0; c < static_cast<int>(TrafficCategory::kCategoryCount); ++c) {
    fnv.Fold(m.traffic.Total(static_cast<TrafficCategory>(c)));
    fnv.Fold(m.traffic.Count(static_cast<TrafficCategory>(c)));
  }
  for (uint64_t counter :
       {m.full_migrations, m.partial_migrations, m.reintegrations, m.host_sleeps,
        m.host_wakes, m.capacity_exhaustions, m.full_to_partial_swaps, m.new_home_moves,
        m.faults_injected, m.faults_recovered, m.crash_vm_restarts, m.events_dispatched}) {
    fnv.Fold(counter);
  }
  return fnv.hash();
}

// The trace generator's seed, derived from the workload seed the same way
// ClusterSimulation derives it from a run seed.
TraceSet GenerateTrace(Context& ctx, uint64_t seed, int users) {
  SpanRecorder::Scope span(ctx.spans, "trace.generate", "trace", static_cast<uint64_t>(users));
  oasis::TraceGenerator generator(oasis::TraceGeneratorConfig{}, seed ^ 0x7ACEBA5Eull);
  return generator.GenerateTraceSet(users, oasis::DayKind::kWeekday);
}

std::string ShapeName(const ClusterConfig& config) {
  return std::to_string(config.num_home_hosts) + "x" + std::to_string(config.vms_per_home) +
         "+" + std::to_string(config.num_consolidation_hosts);
}

uint64_t MigratedBytes(const ClusterMetrics& m) {
  return m.traffic.Total(TrafficCategory::kFullMigration) +
         m.traffic.Total(TrafficCategory::kPartialDescriptor) +
         m.traffic.Total(TrafficCategory::kReintegration);
}

void AddMetrics(OpRecord& op, const ClusterMetrics& m) {
  op.home_j += m.home_host_energy;
  op.consolidation_j += m.consolidation_host_energy;
  op.memory_server_j += m.memory_server_energy;
  op.baseline_j += m.baseline_energy;
  for (double delay : m.transition_delay_s.sorted_samples()) {
    op.delay_sum_s += delay;
  }
  op.delay_count += m.transition_delay_s.count();
  op.events += m.events_dispatched;
  op.migrations += m.full_migrations + m.partial_migrations;
  op.host_wakes += m.host_wakes;
  op.faults_injected += m.faults_injected;
  op.faults_recovered += m.faults_recovered;
  op.migrated_bytes += MigratedBytes(m);
}

// Runs `fn(op)` as one op and times it. `fn` must not append ops itself.
template <typename Fn>
void TimedOp(Context& ctx, std::string kind, std::string key, double vm_days, Fn&& fn) {
  OpRecord& op = ctx.NewOp(std::move(kind), std::move(key), vm_days);
  SpanRecorder::Scope span(ctx.spans, "op." + op.kind, "bench");
  const uint64_t start = NowNs();
  try {
    fn(op);
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  op.ms = static_cast<double>(NowNs() - start) * 1e-6;
}

// Keeps the checker installed for one rack-day, including on unwinding.
class CheckerInstall {
 public:
  explicit CheckerInstall(InvariantChecker* checker) { InvariantChecker::Install(checker); }
  ~CheckerInstall() { InvariantChecker::Install(nullptr); }
  CheckerInstall(const CheckerInstall&) = delete;
  CheckerInstall& operator=(const CheckerInstall&) = delete;
};

// One rack-day: ClusterManager construction and Run, optionally with the
// warn-mode checker installed for the day.
void RunRackDay(Context& ctx, OpRecord& op, const ClusterConfig& config,
                const TraceSet& trace, bool checked) {
  op.checked = checked;
  op.rack_days = 1;
  if (!oasis::IsRegisteredStrategyName(config.strategy_name)) {
    op.error = "unregistered strategy " + config.strategy_name;
    return;
  }
  const uint64_t checks_before = ctx.checker.checks_run();
  const uint64_t violations_before = ctx.checker.violation_count();
  std::optional<CheckerInstall> install;
  if (checked) {
    SpanRecorder::Scope span(ctx.spans, "check.install", "check");
    install.emplace(&ctx.checker);
  }
  ClusterMetrics metrics;
  {
    std::optional<oasis::ClusterManager> manager;
    {
      SpanRecorder::Scope span(ctx.spans, "cluster.ctor", "cluster");
      manager.emplace(config, trace);
    }
    SpanRecorder::Scope span(ctx.spans, "cluster.run." + config.strategy_name, "cluster");
    metrics = manager->Run();
  }
  install.reset();
  op.checks = ctx.checker.checks_run() - checks_before;
  op.violations = ctx.checker.violation_count() - violations_before;
  AddMetrics(op, metrics);
  op.savings = metrics.EnergySavings();
  op.digest = DigestMetrics(metrics);
}

// A rack's ops are keyed "<rack>/<strategy>" and "<rack>/oracle", so
// run.py pairs every oracle solve with oasis-greedy's day on the same rack.
void UncheckedGreedyDay(Context& ctx, const std::string& rack, ClusterConfig config,
                        const TraceSet& trace) {
  config.strategy_name = oasis::kDefaultStrategyName;
  TimedOp(ctx, "rack_day", rack + "/" + config.strategy_name,
          static_cast<double>(config.TotalVms()),
          [&](OpRecord& op) { RunRackDay(ctx, op, config, trace, /*checked=*/false); });
}

void CheckedStrategyDays(Context& ctx, const std::string& rack, ClusterConfig config,
                         const TraceSet& trace) {
  for (const char* strategy : kStrategies) {
    config.strategy_name = strategy;
    TimedOp(ctx, "strategy_day", rack + "/" + strategy, static_cast<double>(config.TotalVms()),
            [&](OpRecord& op) { RunRackDay(ctx, op, config, trace, /*checked=*/true); });
  }
}

void OracleSolve(Context& ctx, const std::string& rack, const ClusterConfig& config,
                 const TraceSet& trace) {
  TimedOp(ctx, "oracle_solve", rack + "/oracle", static_cast<double>(config.TotalVms()),
          [&](OpRecord& op) {
            oasis::OracleResult result;
            {
              SpanRecorder::Scope span(ctx.spans, "oracle.solve", "oracle");
              result = oasis::OfflineOracle(config).Solve(trace, config.seed);
            }
            op.lower_bound_j = result.relaxed_lower_bound;
            op.schedule_j = result.schedule_energy;
            op.baseline_j = result.baseline_energy;
            op.savings = result.ScheduleSavings();
            op.digest = result.Digest();
          });
}

// The verification every workload ends with: oasis-greedy unchecked (its key
// matches the checked run's, so the checker must not perturb it), every
// strategy checked, then the oracle.
void VerifyRack(Context& ctx, const std::string& rack, const ClusterConfig& config,
                const TraceSet& trace) {
  UncheckedGreedyDay(ctx, rack, config, trace);
  CheckedStrategyDays(ctx, rack, config, trace);
  OracleSolve(ctx, rack, config, trace);
}

ClusterConfig PaperRack(uint64_t seed, int homes, int vms_per_home, int consolidation_hosts) {
  ClusterConfig config;
  config.num_home_hosts = homes;
  config.num_consolidation_hosts = consolidation_hosts;
  config.SetVmsPerHome(vms_per_home);
  config.policy = oasis::ConsolidationPolicy::kFullToPartial;
  config.strategy_name = oasis::kDefaultStrategyName;
  config.seed = seed;
  return config;
}

constexpr int kPaperUsers = 900;

// SplitMix64 finalizer over (seed, index): one well-mixed input seed per
// grid point, unrelated across neighbouring workload seeds.
uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + (index + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Fig 12's grid, serial: the 900 VMs spread over denser home hosts, with
// 2-4 consolidation hosts. Every point simulates its own weekday trace, so
// one run averages over 15 user populations.
class PaperRackSweep : public Workload {
 public:
  void Setup(Context& ctx) override {
    grid_.clear();
    const int shapes[][2] = {{30, 30}, {20, 45}, {18, 50}, {15, 60}, {10, 90}};
    for (const auto& shape : shapes) {
      for (int consolidation : {2, 3, 4}) {
        Point& point = grid_.emplace_back();
        point.config = PaperRack(DeriveSeed(ctx.seed, grid_.size()), shape[0], shape[1],
                                 consolidation);
        point.trace = GenerateTrace(ctx, point.config.seed, kPaperUsers);
      }
    }
  }

  uint64_t InputDigest() const override {
    Fnv fnv;
    for (const Point& point : grid_) {
      fnv.Fold(point.trace);
      fnv.Fold(static_cast<uint64_t>(point.config.TotalHosts()));
      fnv.Fold(static_cast<uint64_t>(point.config.host_memory_bytes));
    }
    return fnv.hash();
  }

  void RunCycle(Context& ctx) override {
    for (const Point& point : grid_) {
      UncheckedGreedyDay(ctx, ShapeName(point.config), point.config, point.trace);
    }
  }

  // The paper rack (30x30+4, the third point) is verified in full; every
  // point gets an oracle solve for the pooled oracle gap.
  void Verify(Context& ctx) override {
    for (size_t i = 0; i < grid_.size(); ++i) {
      const std::string rack = ShapeName(grid_[i].config);
      if (i == 2) {
        VerifyRack(ctx, rack, grid_[i].config, grid_[i].trace);
      } else {
        OracleSolve(ctx, rack, grid_[i].config, grid_[i].trace);
      }
    }
  }

 private:
  struct Point {
    ClusterConfig config;
    TraceSet trace;
  };
  std::vector<Point> grid_;
};

// One 30+4 weekday rack per seed under every strategy with the checker
// installed, then the oracle on the same trace.
class PolicyOracleChecked : public Workload {
 public:
  void Setup(Context& ctx) override {
    trace_ = GenerateTrace(ctx, ctx.seed, kPaperUsers);
    config_ = PaperRack(ctx.seed, 30, 30, 4);
  }

  uint64_t InputDigest() const override {
    Fnv fnv;
    fnv.Fold(trace_);
    return fnv.hash();
  }

  void RunCycle(Context& ctx) override {
    CheckedStrategyDays(ctx, ShapeName(config_), config_, trace_);
    OracleSolve(ctx, ShapeName(config_), config_, trace_);
  }

  void Verify(Context& ctx) override { VerifyRack(ctx, ShapeName(config_), config_, trace_); }

 private:
  TraceSet trace_;
  ClusterConfig config_;
};

// The first racks of bench/datacenter_day's grid (rack seeds do not depend
// on the rack count, so these are the same rack-days the full 256-rack
// datacenter simulates), sharded over min(4, cores) workers and coordinated
// in all three modes.
class DatacenterDay : public Workload {
 public:
  static constexpr int kRacks = 4;

  void Setup(Context& ctx) override {
    oasis::dc::DatacenterConfig config;
    config.total_racks = kRacks;
    config.racks_per_pod = 32;
    config.rack.home_hosts = 36;
    config.rack.consolidation_hosts = 4;
    config.rack.vms_per_home = 110;
    config.rack.fault.enabled = true;
    config.rack.fault.host_crash_per_hour = 0.02;
    config.coordinator.rack_power_cap_watts = 3200.0;
    config.coordinator.cap_events_per_rack_day = 0.25;
    config.seed = ctx.seed;
    {
      SpanRecorder::Scope span(ctx.spans, "dc.topology", "dc");
      oasis::StatusOr<oasis::dc::DatacenterTopology> topology =
          oasis::dc::DatacenterTopology::Build(config);
      if (!topology.ok()) {
        throw std::runtime_error("datacenter config: " + topology.status().ToString());
      }
      topology_.emplace(std::move(*topology));
    }
    // Verification racks: each rack's configuration and seed with a trace the
    // benchmark generates (ShardRunner generates its own internally).
    racks_.clear();
    for (const oasis::dc::RackSpec& spec : topology_->racks()) {
      Rack& rack = racks_.emplace_back();
      rack.config = spec.sim.cluster;
      rack.config.seed = spec.sim.seed;
      rack.trace = GenerateTrace(ctx, rack.config.seed, rack.config.TotalVms());
    }
    jobs_ = std::min(4, oasis::exp::HardwareJobs());
  }

  uint64_t InputDigest() const override {
    Fnv fnv;
    for (const Rack& rack : racks_) {
      fnv.Fold(rack.config.seed);
      fnv.Fold(rack.trace);
    }
    return fnv.hash();
  }

  void RunCycle(Context& ctx) override {
    const oasis::dc::DatacenterConfig& config = topology_->config();
    const double vm_days = static_cast<double>(config.TotalUsers());
    const std::string key = "dc/" + std::to_string(kRacks) + "x" + ShapeName(racks_[0].config);
    TimedOp(ctx, "datacenter_day", key, vm_days, [&](OpRecord& op) {
      op.rack_days = kRacks;
      oasis::dc::DatacenterRun run;
      {
        SpanRecorder::Scope span(ctx.spans, "dc.shard_run", "dc");
        run = oasis::dc::ShardRunner(jobs_).Run(*topology_);
      }
      Fnv fnv;
      using oasis::dc::CoordinatorMode;
      // Benchmark-fixed labels, so span and metric names do not follow the
      // library's display names.
      const std::pair<CoordinatorMode, const char*> modes[] = {
          {CoordinatorMode::kOff, "local"},
          {CoordinatorMode::kGlobalGreedy, "global"},
          {CoordinatorMode::kAssisted, "assisted"}};
      for (const auto& [mode, label] : modes) {
        oasis::dc::CoordinatorConfig coordinator = config.coordinator;
        coordinator.mode = mode;
        oasis::dc::CoordinatorStats stats;
        {
          SpanRecorder::Scope span(ctx.spans, std::string("dc.coordinate.") + label, "dc");
          stats = oasis::dc::GlobalCoordinator(coordinator).Coordinate(run);
        }
        oasis::dc::DatacenterLedger ledger;
        {
          SpanRecorder::Scope span(ctx.spans, std::string("dc.ledger.") + label, "dc");
          ledger = oasis::dc::DatacenterLedger::Build(run, stats);
        }
        fnv.Fold(ledger.Digest());
        const double savings = ledger.CoordinatedSavings();
        if (mode == CoordinatorMode::kOff) {
          op.local_savings = savings;
        } else if (mode == CoordinatorMode::kGlobalGreedy) {
          op.global_savings = savings;
        } else {
          op.assisted_savings = savings;
          op.savings = savings;
          op.drains = stats.drains_started;
          op.vms_drained = stats.vms_drained;
        }
      }
      for (const oasis::dc::RackResult& rack : run.racks) {
        AddMetrics(op, rack.metrics);
        fnv.Fold(DigestMetrics(rack.metrics));
      }
      op.digest = fnv.hash();
    });
  }

  // Rack 0 is verified in full; every rack's oasis-greedy day and oracle
  // solve feed the pooled oracle gap.
  void Verify(Context& ctx) override {
    for (size_t r = 0; r < racks_.size(); ++r) {
      const std::string rack = "rack" + std::to_string(r) + ":" + ShapeName(racks_[r].config);
      if (r == 0) {
        VerifyRack(ctx, rack, racks_[r].config, racks_[r].trace);
      } else {
        UncheckedGreedyDay(ctx, rack, racks_[r].config, racks_[r].trace);
        OracleSolve(ctx, rack, racks_[r].config, racks_[r].trace);
      }
    }
  }

 private:
  // Each shard rack's configuration with a benchmark-generated trace.
  struct Rack {
    ClusterConfig config;
    TraceSet trace;
  };
  std::optional<oasis::dc::DatacenterTopology> topology_;
  std::vector<Rack> racks_;
  int jobs_ = 1;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "paper_rack_sweep") {
    return std::make_unique<PaperRackSweep>();
  }
  if (name == "datacenter_day") {
    return std::make_unique<DatacenterDay>();
  }
  if (name == "policy_oracle_checked") {
    return std::make_unique<PolicyOracleChecked>();
  }
  return nullptr;
}

}  // namespace oasisbench
