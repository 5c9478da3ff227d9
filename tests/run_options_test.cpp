// The RunOptions table: every OASIS_* knob parses from an env map with its
// own value parser, an empty value means unset, and a malformed value is
// exactly one error that names the knob (RunMain turns it into exit 2; the
// bad_config_* ctests check that on every binary). The fuzz loop feeds
// random and mutated env maps through the parser: it must return options or
// one single-line error, never abort.

#include "src/run/run_options.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/exp/exp.h"

namespace oasis {
namespace {

TEST(RunOptionsTest, TableHoldsEveryKnobOnce) {
  const std::vector<std::string> expected = {
      "OASIS_TRACE",      "OASIS_METRICS",  "OASIS_TRACE_CAPACITY", "OASIS_LOG_LEVEL",
      "OASIS_SEED",       "OASIS_PROF",     "OASIS_CHECK",          "OASIS_JOBS",
      "OASIS_DC_RACKS",   "OASIS_POLICY",   "OASIS_FLEET",          "OASIS_BENCH_RUNS",
      "OASIS_CSV_DIR",    "OASIS_BENCH_JSON", "OASIS_BENCH_GIT_SHA",
  };
  std::vector<std::string> names;
  for (const RunOption& row : RunOptionTable()) {
    names.push_back(row.name);
    EXPECT_NE(std::string(row.doc), "") << row.name;
  }
  EXPECT_EQ(names, expected);
}

TEST(RunOptionsTest, EmptyEnvGivesDefaults) {
  StatusOr<RunOptions> options = ParseRunOptions({});
  ASSERT_TRUE(options.ok());
  EXPECT_FALSE(options->obs.TracingRequested());
  EXPECT_FALSE(options->obs.MetricsRequested());
  EXPECT_FALSE(options->obs.log_level.has_value());
  EXPECT_FALSE(options->seed.has_value());
  EXPECT_EQ(options->prof.mode, prof::ProfMode::kOff);
  EXPECT_EQ(options->check.mode, check::CheckMode::kOff);
  EXPECT_EQ(options->jobs, exp::HardwareJobs());
  EXPECT_FALSE(options->dc_racks.has_value());
  EXPECT_FALSE(options->policy.has_value());
  EXPECT_FALSE(options->fleet.has_value());
  EXPECT_EQ(options->bench_runs, 5);
  EXPECT_EQ(options->csv_dir, "");
  EXPECT_EQ(options->bench_json, "");
  EXPECT_EQ(options->bench_git_sha, "");
}

struct Case {
  EnvMap env;
  // nullptr: the map must parse and `check` must hold. Otherwise the map
  // must fail with an error that starts with this text.
  const char* error;
  std::function<bool(const RunOptions&)> check;
};

TEST(RunOptionsTest, EveryKnobParsesAndRejectsMalformedValues) {
  const Case cases[] = {
      {{{"OASIS_TRACE", "t.jsonl"}}, nullptr,
       [](const RunOptions& o) { return o.obs.TracingRequested() && o.obs.TraceIsJsonl(); }},
      {{{"OASIS_METRICS", "m.csv"}}, nullptr,
       [](const RunOptions& o) { return o.obs.metrics_path == "m.csv"; }},
      {{{"OASIS_TRACE_CAPACITY", "128"}}, nullptr,
       [](const RunOptions& o) { return o.obs.trace_capacity == 128u; }},
      {{{"OASIS_TRACE_CAPACITY", "abc"}}, "OASIS_TRACE_CAPACITY=abc: not a positive integer", {}},
      {{{"OASIS_TRACE_CAPACITY", "0"}}, "OASIS_TRACE_CAPACITY=0:", {}},
      {{{"OASIS_LOG_LEVEL", "debug"}}, nullptr,
       [](const RunOptions& o) { return o.obs.log_level == LogLevel::kDebug; }},
      {{{"OASIS_LOG_LEVEL", "loud"}}, "OASIS_LOG_LEVEL=loud: unknown level", {}},
      {{{"OASIS_SEED", "7"}}, nullptr, [](const RunOptions& o) { return o.seed == 7u; }},
      {{{"OASIS_SEED", "0x10"}}, nullptr, [](const RunOptions& o) { return o.seed == 16u; }},
      {{{"OASIS_SEED", "abc"}}, "OASIS_SEED=abc: not an unsigned 64-bit integer", {}},
      {{{"OASIS_SEED", "-1"}}, "OASIS_SEED=-1:", {}},
      {{{"OASIS_SEED", "99999999999999999999"}}, "OASIS_SEED=99999999999999999999:", {}},
      {{{"OASIS_PROF", "off"}}, nullptr,
       [](const RunOptions& o) { return o.prof.mode == prof::ProfMode::kOff; }},
      {{{"OASIS_PROF", "0"}}, nullptr,
       [](const RunOptions& o) { return o.prof.mode == prof::ProfMode::kOff; }},
      {{{"OASIS_PROF", "summary"}}, nullptr,
       [](const RunOptions& o) { return o.prof.mode == prof::ProfMode::kSummary; }},
      {{{"OASIS_PROF", "on"}}, nullptr,
       [](const RunOptions& o) { return o.prof.mode == prof::ProfMode::kSummary; }},
      {{{"OASIS_PROF", "1"}}, nullptr,
       [](const RunOptions& o) { return o.prof.mode == prof::ProfMode::kSummary; }},
      {{{"OASIS_PROF", "timeline"}}, nullptr,
       [](const RunOptions& o) { return o.prof.mode == prof::ProfMode::kTimeline; }},
      {{{"OASIS_PROF", "2"}}, nullptr,
       [](const RunOptions& o) { return o.prof.mode == prof::ProfMode::kTimeline; }},
      {{{"OASIS_PROF", "bogus"}}, "OASIS_PROF=bogus: unknown mode", {}},
      {{{"OASIS_CHECK", "off"}}, nullptr,
       [](const RunOptions& o) { return !o.check.Enabled(); }},
      {{{"OASIS_CHECK", "0"}}, nullptr,
       [](const RunOptions& o) { return !o.check.Enabled(); }},
      {{{"OASIS_CHECK", "warn"}}, nullptr,
       [](const RunOptions& o) { return o.check.mode == check::CheckMode::kWarn; }},
      {{{"OASIS_CHECK", "on"}}, nullptr,
       [](const RunOptions& o) { return o.check.mode == check::CheckMode::kWarn; }},
      {{{"OASIS_CHECK", "1"}}, nullptr,
       [](const RunOptions& o) { return o.check.mode == check::CheckMode::kWarn; }},
      {{{"OASIS_CHECK", "strict"}}, nullptr,
       [](const RunOptions& o) { return o.check.mode == check::CheckMode::kStrict; }},
      {{{"OASIS_CHECK", "2"}}, nullptr,
       [](const RunOptions& o) { return o.check.mode == check::CheckMode::kStrict; }},
      // A typo must not turn a strict run into a warn run that passes.
      {{{"OASIS_CHECK", "stirct"}}, "OASIS_CHECK=stirct: unknown mode", {}},
      {{{"OASIS_JOBS", "4"}}, nullptr, [](const RunOptions& o) { return o.jobs == 4; }},
      // Never a silent fallback to every core, and nothing past INT_MAX (or
      // past long's range) is truncated into some other worker count.
      {{{"OASIS_JOBS", "abc"}}, "OASIS_JOBS=abc: not a positive integer", {}},
      {{{"OASIS_JOBS", "4x"}}, "OASIS_JOBS=4x:", {}},
      {{{"OASIS_JOBS", "0"}}, "OASIS_JOBS=0:", {}},
      {{{"OASIS_JOBS", "-3"}}, "OASIS_JOBS=-3:", {}},
      {{{"OASIS_JOBS", " 4"}}, "OASIS_JOBS= 4:", {}},
      {{{"OASIS_JOBS", "4294967297"}}, "OASIS_JOBS=4294967297:", {}},
      {{{"OASIS_JOBS", "99999999999999999999"}}, "OASIS_JOBS=99999999999999999999:", {}},
      {{{"OASIS_DC_RACKS", "8"}}, nullptr, [](const RunOptions& o) { return o.dc_racks == 8; }},
      {{{"OASIS_DC_RACKS", "a-rack-count"}}, "OASIS_DC_RACKS=a-rack-count:", {}},
      {{{"OASIS_POLICY", "predictive"}}, nullptr,
       [](const RunOptions& o) { return o.policy == "predictive"; }},
      {{{"OASIS_POLICY", "round-robin"}},
       "OASIS_POLICY=round-robin: names no registered strategy (registered: oasis-greedy",
       {}},
      {{{"OASIS_FLEET", "table1:10,efficient-v2:24"}}, nullptr,
       [](const RunOptions& o) { return o.fleet && o.fleet->CoveredHosts() == 34; }},
      {{{"OASIS_FLEET", "not-a-generation:5"}}, "OASIS_FLEET=not-a-generation:5:", {}},
      {{{"OASIS_FLEET", "table1:zero"}}, "OASIS_FLEET=table1:zero: fleet entry", {}},
      {{{"OASIS_BENCH_RUNS", "2"}}, nullptr,
       [](const RunOptions& o) { return o.bench_runs == 2; }},
      {{{"OASIS_BENCH_RUNS", "two"}}, "OASIS_BENCH_RUNS=two:", {}},
      {{{"OASIS_CSV_DIR", "out"}}, nullptr, [](const RunOptions& o) { return o.csv_dir == "out"; }},
      {{{"OASIS_BENCH_JSON", "b.json"}}, nullptr,
       [](const RunOptions& o) { return o.bench_json == "b.json"; }},
      {{{"OASIS_BENCH_GIT_SHA", "abc123"}}, nullptr,
       [](const RunOptions& o) { return o.bench_git_sha == "abc123"; }},
      // An empty value is the same as unset, for every knob.
      {{{"OASIS_JOBS", ""}, {"OASIS_CHECK", ""}, {"OASIS_SEED", ""}}, nullptr,
       [](const RunOptions& o) {
         return o.jobs == exp::HardwareJobs() && !o.check.Enabled() && !o.seed;
       }},
      // Keys outside the table are not the parser's business.
      {{{"OASIS_FUZZ_TRIALS", "x"}, {"OASIS_UNKNOWN", "y"}}, nullptr,
       [](const RunOptions&) { return true; }},
      // Control bytes never split the error line.
      {{{"OASIS_PROF", "a\nb"}}, "OASIS_PROF=a?b: unknown mode", {}},
  };
  for (const Case& c : cases) {
    std::string label;
    for (const auto& [key, value] : c.env) {
      label += key + "=" + value + " ";
    }
    StatusOr<RunOptions> options = ParseRunOptions(c.env);
    if (c.error == nullptr) {
      ASSERT_TRUE(options.ok()) << label << options.status().ToString();
      EXPECT_TRUE(c.check(*options)) << label;
    } else {
      ASSERT_FALSE(options.ok()) << label;
      EXPECT_EQ(options.status().message().rfind(c.error, 0), 0u)
          << label << "-> " << options.status().message();
    }
  }
}

// Trial counts are tunable so CI can bound the Release-mode run:
// OASIS_FUZZ_TRIALS caps the loop at that many iterations.
int FuzzTrials(int default_trials) {
  const char* env = std::getenv("OASIS_FUZZ_TRIALS");
  if (env == nullptr || *env == '\0') {
    return default_trials;
  }
  int parsed = std::atoi(env);
  return parsed > 0 ? std::min(parsed, default_trials) : default_trials;
}

// One valid spelling per knob, the seeds the mutator starts from.
const char* ValidValue(const std::string& name) {
  static const std::vector<std::pair<std::string, const char*>> kValid = {
      {"OASIS_TRACE", "t.json"},       {"OASIS_METRICS", "m.csv"},
      {"OASIS_TRACE_CAPACITY", "4096"}, {"OASIS_LOG_LEVEL", "info"},
      {"OASIS_SEED", "0x2a"},          {"OASIS_PROF", "summary"},
      {"OASIS_CHECK", "strict"},       {"OASIS_JOBS", "3"},
      {"OASIS_DC_RACKS", "8"},         {"OASIS_POLICY", "local-threshold"},
      {"OASIS_FLEET", "table1:10,legacy-no-s3:10,efficient-v2:14"},
      {"OASIS_BENCH_RUNS", "2"},       {"OASIS_CSV_DIR", "csv"},
      {"OASIS_BENCH_JSON", "b.json"},  {"OASIS_BENCH_GIT_SHA", "deadbeef"},
  };
  for (const auto& [key, value] : kValid) {
    if (key == name) {
      return value;
    }
  }
  return "";
}

// A byte an environment value can hold (anything but NUL).
char RandomByte(Rng& rng) {
  static const char kInteresting[] = "0123456789:,-+x xX\t\n.abz";
  if (rng.NextBool(0.7)) {
    return kInteresting[rng.NextBelow(sizeof(kInteresting) - 1)];
  }
  return static_cast<char>(1 + rng.NextBelow(255));
}

std::string Mutate(Rng& rng, std::string value) {
  const int edits = 1 + static_cast<int>(rng.NextBelow(4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = value.empty() ? 0 : rng.NextBelow(value.size() + 1);
    switch (rng.NextBelow(5)) {
      case 0:  // insert
        value.insert(value.begin() + static_cast<std::ptrdiff_t>(at), RandomByte(rng));
        break;
      case 1:  // delete
        if (at < value.size()) {
          value.erase(at, 1);
        }
        break;
      case 2:  // overwrite
        if (at < value.size()) {
          value[at] = RandomByte(rng);
        }
        break;
      case 3:  // truncate
        value.resize(at);
        break;
      default:  // duplicate a run
        value += value.substr(at);
        break;
    }
  }
  return value;
}

TEST(RunOptionsFuzzTest, RandomAndMutatedMapsParseOrFailOnce) {
  const std::vector<RunOption>& table = RunOptionTable();
  Rng rng(0xC0FFEEull);
  const int trials = FuzzTrials(20000);
  int parsed = 0;
  for (int trial = 0; trial < trials; ++trial) {
    EnvMap env;
    for (const RunOption& row : table) {
      if (!rng.NextBool(0.4)) {
        continue;
      }
      std::string value = ValidValue(row.name);
      // Every tenth map holds valid values only, so both outcomes occur.
      const uint64_t kind = trial % 10 == 0 ? 0 : rng.NextBelow(4);
      if (kind == 1) {
        value = Mutate(rng, value);
      } else if (kind == 2) {
        value.clear();
        const size_t length = rng.NextBelow(12);
        for (size_t i = 0; i < length; ++i) {
          value += RandomByte(rng);
        }
      } else if (kind == 3) {
        // Another knob's valid value: right shape, wrong knob.
        value = Mutate(rng, ValidValue(table[rng.NextBelow(table.size())].name));
      }
      env[row.name] = value;
    }
    if (rng.NextBool(0.2)) {
      env["OASIS_NOT_A_KNOB"] = Mutate(rng, "x");
    }

    StatusOr<RunOptions> first = ParseRunOptions(env);
    StatusOr<RunOptions> again = ParseRunOptions(env);
    ASSERT_EQ(first.ok(), again.ok()) << "trial " << trial;
    if (first.ok()) {
      ++parsed;
      EXPECT_GT(first->jobs, 0);
      EXPECT_GT(first->bench_runs, 0);
      EXPECT_GT(first->obs.trace_capacity, 0u);
      EXPECT_TRUE(!first->dc_racks || *first->dc_racks > 0);
      EXPECT_TRUE(!first->fleet || first->fleet->Validate().ok());
      continue;
    }
    // Exactly one error: one line, naming one knob the map set.
    const std::string message = first.status().message();
    EXPECT_EQ(message, again.status().message()) << "trial " << trial;
    EXPECT_EQ(message.find('\n'), std::string::npos) << "trial " << trial;
    int named = 0;
    for (const RunOption& row : table) {
      const std::string prefix = std::string(row.name) + "=";
      if (message.rfind(prefix, 0) == 0 && env.count(row.name) != 0) {
        ++named;
      }
    }
    EXPECT_EQ(named, 1) << "trial " << trial << ": " << message;
  }
  EXPECT_GT(parsed, 0);
  if (trials > 1) {
    EXPECT_LT(parsed, trials);
  }
}

}  // namespace
}  // namespace oasis
