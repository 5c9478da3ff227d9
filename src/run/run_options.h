// Process configuration, read once.
//
// Every OASIS_* knob a binary honours is one row of the RunOptions table
// (run_options.cc): the variable's name, the field it sets, the value parser
// and one doc line. ParseRunOptions turns an env map into RunOptions or
// exactly one error; RunMain reads the process environment once, installs
// the process-wide scopes in their required order and hands the parsed
// options to the binary's body:
//
//     int main(int argc, char** argv) { return oasis::RunMain(argc, argv, Run); }
//
// Libraries never read the environment. main passes each parsed value down
// as an argument: ObsScope(ObsConfig), CheckScope(CheckConfig),
// ProfSession(ProfConfig), RunParallel(plan, jobs), ShardRunner(jobs), the
// seed, the strategy name, the rack count and the fleet mix.
//
// An empty value is the same as an unset variable. Any other value a row's
// parser rejects is a configuration error: RunMain prints one "[config]"
// line to stderr and exits with kBadConfigExitCode before the body runs, so
// a typo can never fall back silently to a default.

#ifndef OASIS_SRC_RUN_RUN_OPTIONS_H_
#define OASIS_SRC_RUN_RUN_OPTIONS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/common/status.h"
#include "src/exp/exp.h"
#include "src/obs/obs.h"
#include "src/obs/prof.h"
#include "src/power/host_profile.h"

namespace oasis {

struct RunOptions {
  obs::ObsConfig obs;  // OASIS_TRACE, OASIS_METRICS, OASIS_TRACE_CAPACITY, OASIS_LOG_LEVEL
  std::optional<uint64_t> seed;  // OASIS_SEED: replaces the binary's base seed
  prof::ProfConfig prof;         // OASIS_PROF
  check::CheckConfig check;      // OASIS_CHECK
  int jobs = exp::HardwareJobs();  // OASIS_JOBS
  std::optional<int> dc_racks;   // OASIS_DC_RACKS
  std::optional<std::string> policy;  // OASIS_POLICY: a registered strategy name
  std::optional<FleetMix> fleet;      // OASIS_FLEET
  int bench_runs = 5;                 // OASIS_BENCH_RUNS
  std::string csv_dir;                // OASIS_CSV_DIR ("" = no CSV files)
  std::string bench_json;             // OASIS_BENCH_JSON ("" = the binary's default)
  std::string bench_git_sha;          // OASIS_BENCH_GIT_SHA
};

// One row of the table: the variable, its doc line, and the parser that
// writes the parsed value into its RunOptions field.
struct RunOption {
  const char* name;
  const char* doc;
  Status (*parse)(const std::string& value, RunOptions* options);
};

// Every row, in documentation order (README.md's table mirrors it).
const std::vector<RunOption>& RunOptionTable();

using EnvMap = std::map<std::string, std::string>;

// The table's number parsers, shared with command-line arguments so a
// malformed number is rejected the same way wherever it is typed.
// A positive int, with nothing before or after the digits.
Status ParsePositiveInt(const std::string& value, int* out);
// An unsigned 64-bit value in strtoull base-0 form (decimal, 0x hex, 0
// octal), with nothing before or after it.
Status ParseSeed(const std::string& value, uint64_t* out);

// Parses the table's variables out of `env`; keys outside the table are
// ignored. Returns the options, or the first malformed value's error.
StatusOr<RunOptions> ParseRunOptions(const EnvMap& env);

// Exit status of every malformed configuration value.
inline constexpr int kBadConfigExitCode = 2;

// Writes `error` as the one "[config] ..." stderr line and returns
// kBadConfigExitCode. RunMain uses it for parse errors; a body uses it for a
// value that parsed but does not fit the binary (a fleet mix that does not
// cover the rack).
int ReportBadConfig(const Status& error);

using RunBody = int (*)(const RunOptions& options, int argc, char** argv);

// Parses the process environment, then runs `body` inside a CheckScope, an
// ObsScope and a ProfSession, constructed in that order. Destruction runs
// in reverse: the profiler reports before the trace is exported (so
// timeline rows reach the file), and traces flush before a strict checker
// exits the process.
int RunMain(int argc, char** argv, RunBody body);

}  // namespace oasis

#endif  // OASIS_SRC_RUN_RUN_OPTIONS_H_
