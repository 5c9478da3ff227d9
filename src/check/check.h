// Opt-in runtime invariant checking.
//
// The simulator's credibility rests on conservation laws — no VM lost or
// duplicated across hosts, bytes balanced across migrations, the energy
// ledger equal to the piecewise integral of the power model — yet nothing in
// a passing unit-test run proves they hold mid-simulation under chaos or
// concurrency. InvariantChecker is the collection point: instrumentation
// sites across sim/, power/, hyper/ and cluster/ gate on IfEnabled() (one
// relaxed atomic load, mirroring obs::Tracer) and report violations with the
// simulated timestamp and structured args. CheckScope wires the checker to
// a CheckConfig for a binary's main, exactly like obs::ObsScope; RunMain
// (src/run) parses the mode from OASIS_CHECK, so
//
//     OASIS_CHECK=strict ./build/bench/fig08_energy_savings
//
// runs the full day with every invariant asserted and exits non-zero (with a
// structured stderr report) if any fired. The modes:
//   off (default)  checker disabled, zero overhead beyond one predictable
//                  branch per hook and zero RNG draws.
//   warn           record + report violations, exit status untouched.
//   strict         like warn, but the process exits with status 2 once the
//                  scope closes if any violation was recorded.
//
// Violations are triple-reported: a structured stderr line at record time,
// an obs instant event (category "check") plus "check.violations" counter
// when those collectors are enabled, and the end-of-scope summary. The
// checker never writes to stdout, so golden-file comparisons hold with the
// checker on. It is thread-safe: parallel experiment runs share the global
// checker, and a violation in one run neither stops nor perturbs siblings.

#ifndef OASIS_SRC_CHECK_CHECK_H_
#define OASIS_SRC_CHECK_CHECK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/trace.h"

namespace oasis {
namespace check {

enum class CheckMode {
  kOff,
  kWarn,    // record and report, but do not affect the exit status
  kStrict,  // non-zero process exit if any violation was recorded
};

const char* CheckModeName(CheckMode mode);

// Exit status a strict CheckScope uses when violations were recorded.
inline constexpr int kStrictExitCode = 2;

// Parses a mode name ("0", "off" -> off; "1", "on", "warn" -> warn; "2",
// "strict" -> strict). Returns false on any other value, so a typo cannot
// turn a strict run into a warn run that passes with violations.
bool ParseCheckMode(const std::string& value, CheckMode* out);

struct CheckConfig {
  CheckMode mode = CheckMode::kOff;

  bool Enabled() const { return mode != CheckMode::kOff; }
};

// One recorded invariant failure. `invariant` is a stable dotted identifier
// (e.g. "cluster.vm_unique_location"); it must be a string literal — events
// forwarded to the tracer store the pointer, not a copy.
struct Violation {
  const char* invariant = "";
  SimTime at;              // simulated time the check ran
  std::string detail;      // human-readable specifics
  obs::TraceArgs args;     // structured host/vm/bytes payload
};

class InvariantChecker {
 public:
  explicit InvariantChecker(CheckMode mode) : mode_(mode) {}
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  CheckMode mode() const { return mode_; }

  // Records one violation: stores it (up to kMaxStoredViolations; the count
  // is always exact), writes one structured stderr line, and emits an obs
  // instant + counter when those collectors are enabled. Thread-safe.
  void Report(const char* invariant, SimTime at, std::string detail,
              obs::TraceArgs args = {});

  // The entry point for single-check instrumentation sites: counts one
  // executed assertion on the shared atomic and reports when `ok` is false.
  // `detail` is only invoked on failure, so the message costs nothing on the
  // passing path. Loops that run thousands of checks back to back use a
  // Tally instead; CountChecks adds a batch counted elsewhere.
  template <typename DetailFn>
  void Expect(bool ok, const char* invariant, SimTime at, DetailFn&& detail,
              obs::TraceArgs args = {}) {
    checks_run_.fetch_add(1, std::memory_order_relaxed);
    if (track_rules_.load(std::memory_order_relaxed)) {
      NoteEvaluated(invariant);
    }
    if (!ok) {
      Report(invariant, at, detail(), args);
    }
  }
  void CountChecks(uint64_t checks) {
    checks_run_.fetch_add(checks, std::memory_order_relaxed);
  }

  // Walk-local counting for a loop of checks (the cluster conservation walk
  // runs ~8.5k per planning interval): each Expect bumps a plain integer,
  // and the total reaches checks_run with one CountChecks when the tally is
  // destroyed, instead of one shared atomic add per check that every
  // parallel shard would contend on. A failure is reported at once through
  // Report, with the same id, detail and args as InvariantChecker::Expect.
  // The rule-census flag is read once, at construction. One tally per walk:
  // a tally is not shared between threads.
  class Tally {
   public:
    explicit Tally(InvariantChecker& checker)
        : checker_(checker),
          track_rules_(checker.track_rules_.load(std::memory_order_relaxed)) {}
    ~Tally() { checker_.CountChecks(checks_); }
    Tally(const Tally&) = delete;
    Tally& operator=(const Tally&) = delete;

    template <typename DetailFn>
    void Expect(bool ok, const char* invariant, SimTime at, DetailFn&& detail,
                obs::TraceArgs args = {}) {
      ++checks_;
      if (track_rules_) {
        checker_.NoteEvaluated(invariant);
      }
      if (!ok) {
        checker_.Report(invariant, at, detail(), args);
      }
    }

    // Bulk form for a loop that evaluates one rule `n` times and reports
    // only its failures (through InvariantChecker::Report, which counts
    // nothing): adds the n checks, and records the rule in the census when
    // it ran at least once.
    void Count(const char* invariant, uint64_t n) {
      checks_ += n;
      if (track_rules_ && n > 0) {
        checker_.NoteEvaluated(invariant);
      }
    }

    // Checks counted so far and not yet added to checks_run.
    uint64_t checks() const { return checks_; }

   private:
    InvariantChecker& checker_;
    const bool track_rules_;
    uint64_t checks_ = 0;
  };

  uint64_t checks_run() const { return checks_run_.load(std::memory_order_relaxed); }
  uint64_t violation_count() const {
    return violation_count_.load(std::memory_order_relaxed);
  }
  std::vector<Violation> violations() const;

  // Opt-in rule census for test suites: once enabled, Expect also records
  // every distinct invariant id it evaluates, so a suite can assert that a
  // rule actually ran (a rule that never runs can never fail). Enable it
  // before installing the checker.
  void TrackEvaluatedRules() { track_rules_.store(true, std::memory_order_relaxed); }
  std::set<std::string> EvaluatedRules() const;

  // Writes the end-of-run summary (one line per stored violation plus a
  // checks/violations tally) to stderr. Returns the violation count.
  uint64_t ReportToStderr() const;

  // --- process-wide wiring -------------------------------------------------
  // The installed checker, nullptr when checking is disabled — the hot-path
  // gate at every instrumentation site:
  //   if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) ...
  static InvariantChecker* IfEnabled();
  // Installs `checker` as the process-wide instance (nullptr uninstalls).
  static void Install(InvariantChecker* checker);

  // Stored-violation cap: the count stays exact past it, but a pathological
  // run cannot grow the report without bound.
  static constexpr size_t kMaxStoredViolations = 256;

 private:
  void NoteEvaluated(const char* invariant);

  const CheckMode mode_;
  std::atomic<uint64_t> checks_run_{0};
  std::atomic<uint64_t> violation_count_{0};
  std::atomic<bool> track_rules_{false};
  mutable std::mutex mu_;
  std::vector<Violation> stored_;
  std::set<const char*> evaluated_;  // invariant ids are string literals
};

// RAII: installs an InvariantChecker per `config` for the duration of a
// binary's main. On destruction it uninstalls, prints the summary, and — in
// strict mode with violations recorded — exits the process with
// kStrictExitCode. RunMain opens it *before* the ObsScope, so traces and
// metrics flush before a strict exit.
class CheckScope {
 public:
  explicit CheckScope(const CheckConfig& config);
  ~CheckScope();
  CheckScope(const CheckScope&) = delete;
  CheckScope& operator=(const CheckScope&) = delete;

  // Uninstalls the checker and prints the summary now (idempotent). Returns
  // true when the strict contract is violated (strict mode + violations);
  // the destructor turns that into a process exit.
  bool Finish();

  const CheckConfig& config() const { return config_; }
  // nullptr when the scope is disabled (OASIS_CHECK unset/off).
  InvariantChecker* checker() { return checker_.get(); }

 private:
  CheckConfig config_;
  std::unique_ptr<InvariantChecker> checker_;
  bool finished_ = false;
};

}  // namespace check
}  // namespace oasis

#endif  // OASIS_SRC_CHECK_CHECK_H_
