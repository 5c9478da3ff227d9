// oasis_bench, the Oasis benchmark binary: shared types.
//
// oasis_bench times calls into the libraries' public entry points from the
// outside and writes one raw JSON document (every op and the profiler's
// phases) to stdout and its spans to a file; oasisbench/run.py judges the
// ops and turns the raw numbers into the named metrics.
//
// Every configuration is set in code from the seed alone. It reads no
// OASIS_* variable and installs no env-driven scope (run.py also strips
// OASIS_* from its environment).

#ifndef OASISBENCH_BENCH_H_
#define OASISBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/check.h"

namespace oasisbench {

// One call (or group of calls) the benchmark timed, with everything run.py
// needs to judge it. Ops sharing a `key` ran on identical inputs and must
// produce identical digests; checked and unchecked runs of one rack-day share
// a key, so the checker is also proven to observe without perturbing.
struct OpRecord {
  std::string kind;  // rack_day | strategy_day | oracle_solve | datacenter_day
  std::string key;
  int cycle = -1;      // timed-loop cycle; -1 for the verification pass
  bool checked = false;
  double ms = 0.0;
  double vm_days = 0.0;
  int rack_days = 0;  // simulated rack-days (0 for an oracle solve)
  uint64_t digest = 0;
  std::string error;

  // Cluster days: the energy parts and outcomes (datacenter ops fold racks).
  double home_j = 0.0;
  double consolidation_j = 0.0;
  double memory_server_j = 0.0;
  double baseline_j = 0.0;
  double savings = 0.0;
  double delay_sum_s = 0.0;
  uint64_t delay_count = 0;
  uint64_t events = 0;
  uint64_t migrations = 0;
  uint64_t host_wakes = 0;
  uint64_t faults_injected = 0;
  uint64_t faults_recovered = 0;
  uint64_t migrated_bytes = 0;
  uint64_t checks = 0;
  uint64_t violations = 0;

  // Oracle solves.
  double lower_bound_j = 0.0;
  double schedule_j = 0.0;

  // Datacenter days: savings per coordinator mode, and the drain tier.
  double local_savings = 0.0;
  double assisted_savings = 0.0;
  double global_savings = 0.0;
  uint64_t drains = 0;
  uint64_t vms_drained = 0;
};

// Spans the benchmark records around its own calls into the libraries. Kept
// in memory and written out with the raw document.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string module;
    int parent = -1;
    int op = -1;
    uint64_t items = 0;  // work units the call covered (users for trace spans)
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  // RAII span; a no-op while the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, const char* module, uint64_t items = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_ = -1;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op(int op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  int op_ = -1;
  std::vector<int> open_;
  std::vector<Span> spans_;
};

uint64_t NowNs();

// What a workload appends ops and spans to.
struct Context {
  uint64_t seed = 0;
  int cycle = -1;
  SpanRecorder spans;
  std::vector<OpRecord> ops;
  // Warn mode: violations are counted per op, never fatal to the process.
  oasis::check::InvariantChecker checker{oasis::check::CheckMode::kWarn};

  // Appends `op` and points the span recorder at it.
  OpRecord& NewOp(std::string kind, std::string key, double vm_days);
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds every input from ctx.seed. Called several times; each call must
  // rebuild the same inputs, which InputDigest() lets main() verify.
  virtual void Setup(Context& ctx) = 0;
  virtual uint64_t InputDigest() const = 0;
  // One closed-loop cycle of timed ops.
  virtual void RunCycle(Context& ctx) = 0;
  // Untimed checks after the loop: the workload's verification rack runs
  // unchecked under oasis-greedy, then checked under every strategy, then
  // through the oracle.
  virtual void Verify(Context& ctx) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// Strategy names the benchmark runs. Fixed here, not read from the
// registry, so the per-strategy metric names stay stable.
inline const char* const kStrategies[] = {"oasis-greedy", "first-fit-decreasing",
                                          "local-threshold", "predictive"};

}  // namespace oasisbench

#endif  // OASISBENCH_BENCH_H_
