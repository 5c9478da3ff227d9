#include "src/run/run_options.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "src/cluster/strategy.h"
#include "src/common/log.h"

namespace oasis {

Status ParsePositiveInt(const std::string& value, int* out) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || value[0] < '0' || value[0] > '9' ||
      end != value.c_str() + value.size() || errno == ERANGE || parsed <= 0 ||
      parsed > INT_MAX) {
    return Status::InvalidArgument("not a positive integer");
  }
  *out = static_cast<int>(parsed);
  return Status::Ok();
}

Status ParseSeed(const std::string& value, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 0);
  if (value.empty() || value[0] < '0' || value[0] > '9' ||
      end != value.c_str() + value.size() || errno == ERANGE) {
    return Status::InvalidArgument("not an unsigned 64-bit integer");
  }
  *out = static_cast<uint64_t>(parsed);
  return Status::Ok();
}

namespace {

const std::vector<RunOption> kTable = {
    {"OASIS_TRACE", "write a trace here; a .jsonl suffix selects JSONL, else Chrome JSON",
     [](const std::string& v, RunOptions* o) {
       o->obs.trace_path = v;
       return Status::Ok();
     }},
    {"OASIS_METRICS", "write the metrics CSV snapshot here at exit",
     [](const std::string& v, RunOptions* o) {
       o->obs.metrics_path = v;
       return Status::Ok();
     }},
    {"OASIS_TRACE_CAPACITY", "trace ring size in events (default 65536; oldest dropped)",
     [](const std::string& v, RunOptions* o) {
       int capacity = 0;
       Status status = ParsePositiveInt(v, &capacity);
       o->obs.trace_capacity = static_cast<size_t>(capacity);
       return status;
     }},
    {"OASIS_LOG_LEVEL", "debug|info|warning|error|off (default warning)",
     [](const std::string& v, RunOptions* o) {
       LogLevel level;
       if (!ParseLogLevel(v, &level)) {
         return Status::InvalidArgument("unknown level (accepted: debug|info|warning|error|off)");
       }
       o->obs.log_level = level;
       return Status::Ok();
     }},
    {"OASIS_SEED", "replaces the binary's base seed (decimal or 0x hex)",
     [](const std::string& v, RunOptions* o) {
       uint64_t seed = 0;
       Status status = ParseSeed(v, &seed);
       o->seed = seed;
       return status;
     }},
    {"OASIS_PROF", "wall-clock profiler: off|summary|timeline (report on stderr)",
     [](const std::string& v, RunOptions* o) {
       return prof::ParseProfMode(v, &o->prof.mode)
                  ? Status::Ok()
                  : Status::InvalidArgument("unknown mode (accepted: off|summary|timeline)");
     }},
    {"OASIS_CHECK", "invariant checker: off|warn|strict (strict exits 2 on a violation)",
     [](const std::string& v, RunOptions* o) {
       return check::ParseCheckMode(v, &o->check.mode)
                  ? Status::Ok()
                  : Status::InvalidArgument("unknown mode (accepted: off|warn|strict)");
     }},
    {"OASIS_JOBS", "worker threads for parallel runs and rack shards (default: all cores)",
     [](const std::string& v, RunOptions* o) { return ParsePositiveInt(v, &o->jobs); }},
    {"OASIS_DC_RACKS", "total rack count of bench/datacenter_day (default 256)",
     [](const std::string& v, RunOptions* o) {
       int racks = 0;
       Status status = ParsePositiveInt(v, &racks);
       o->dc_racks = racks;
       return status;
     }},
    {"OASIS_POLICY", "consolidation strategy for the paper racks (default oasis-greedy)",
     [](const std::string& v, RunOptions* o) {
       if (!IsRegisteredStrategyName(v)) {
         return Status::InvalidArgument("names no registered strategy (registered: " +
                                        RegisteredStrategyNamesJoined() + ")");
       }
       o->policy = v;
       return Status::Ok();
     }},
    {"OASIS_FLEET", "bench/heterogeneous_fleet host mix, generation:count pairs joined by commas",
     [](const std::string& v, RunOptions* o) {
       StatusOr<FleetMix> mix = ParseFleetMix(v);
       if (!mix.ok()) {
         return Status::InvalidArgument(mix.status().message() +
                                        " (accepted: generation:count pairs joined by commas)");
       }
       o->fleet = *mix;
       return Status::Ok();
     }},
    {"OASIS_BENCH_RUNS", "repetitions per bench datapoint (default 5)",
     [](const std::string& v, RunOptions* o) { return ParsePositiveInt(v, &o->bench_runs); }},
    {"OASIS_CSV_DIR", "benches also write their data series as <dir>/<name>.csv",
     [](const std::string& v, RunOptions* o) {
       o->csv_dir = v;
       return Status::Ok();
     }},
    {"OASIS_BENCH_JSON", "JSON snapshot path of perf_sweep (and ablation_policy's splice)",
     [](const std::string& v, RunOptions* o) {
       o->bench_json = v;
       return Status::Ok();
     }},
    {"OASIS_BENCH_GIT_SHA", "revision stamped into perf_sweep's JSON snapshot",
     [](const std::string& v, RunOptions* o) {
       o->bench_git_sha = v;
       return Status::Ok();
     }},
};

// An error line as printed: control bytes become '?', so the report stays
// one line whatever the environment holds.
std::string Printable(std::string out) {
  for (char& c : out) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
      c = '?';
    }
  }
  return out;
}

}  // namespace

const std::vector<RunOption>& RunOptionTable() { return kTable; }

StatusOr<RunOptions> ParseRunOptions(const EnvMap& env) {
  RunOptions options;
  for (const RunOption& row : kTable) {
    auto it = env.find(row.name);
    if (it == env.end() || it->second.empty()) {
      continue;
    }
    Status status = row.parse(it->second, &options);
    if (!status.ok()) {
      return Status::InvalidArgument(
          Printable(std::string(row.name) + "=" + it->second + ": " + status.message()));
    }
  }
  return options;
}

int ReportBadConfig(const Status& error) {
  std::fprintf(stderr, "[config] %s\n", error.message().c_str());
  return kBadConfigExitCode;
}

int RunMain(int argc, char** argv, RunBody body) {
  EnvMap env;
  for (const RunOption& row : kTable) {
    if (const char* value = std::getenv(row.name)) {
      env[row.name] = value;
    }
  }
  StatusOr<RunOptions> options = ParseRunOptions(env);
  if (!options.ok()) {
    return ReportBadConfig(options.status());
  }
  check::CheckScope check_scope(options->check);
  obs::ObsScope obs_scope(options->obs);
  prof::ProfSession prof_session(options->prof);
  return body(*options, argc, argv);
}

}  // namespace oasis
