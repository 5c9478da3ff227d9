// oasis_bench: runs one benchmark workload and prints its raw measurements.
//
//   oasis_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--spans <path>]
//
// The workload's inputs are set up several times (each set-up timed), then
// closed-loop cycles of ops run until --seconds have passed and at least
// kMinTimedOps ops were timed, then an untimed verification pass runs. With
// --trace 1 every other cycle is traced: spans around each library call and
// the library's wall-clock profiler on; the untraced cycles between them
// give the tracing overhead. Spans go to --spans as JSON.
//
// Stdout carries one JSON document; diagnostics go to stderr.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "src/obs/prof.h"

namespace oasisbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name, const char* module,
                           uint64_t items)
    : recorder_(recorder) {
  if (!recorder.enabled_) {
    return;
  }
  id_ = static_cast<int>(recorder.spans_.size());
  Span span;
  span.name = std::move(name);
  span.module = module;
  span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  span.op = recorder.op_;
  span.items = items;
  span.start_ns = NowNs();
  recorder.spans_.push_back(std::move(span));
  recorder.open_.push_back(id_);
}

SpanRecorder::Scope::~Scope() {
  if (id_ < 0) {
    return;
  }
  recorder_.spans_[static_cast<size_t>(id_)].end_ns = NowNs();
  recorder_.open_.pop_back();
}

OpRecord& Context::NewOp(std::string kind, std::string key, double vm_days) {
  OpRecord& op = ops.emplace_back();
  op.kind = std::move(kind);
  op.key = std::move(key);
  op.cycle = cycle;
  op.vm_days = vm_days;
  spans.set_op(static_cast<int>(ops.size()) - 1);
  return op;
}

namespace {

constexpr int kSetupRepetitions = 5;
constexpr size_t kMinTimedOps = 100;
// The loop stops here even if kMinTimedOps were not reached, so every run
// ends in bounded time.
constexpr double kHardStopSeconds = 120.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::string(value) == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// Minimal JSON writer: one object per line-free document, numbers printed
// with every significant digit.
class Json {
 public:
  explicit Json(std::FILE* out) : out_(out) {}
  void Open(char c) {
    Sep();
    std::fputc(c, out_);
    first_ = true;
  }
  void Close(char c) {
    std::fputc(c, out_);
    first_ = false;
  }
  Json& Key(const char* key) {
    Sep();
    Str(key);
    std::fputc(':', out_);
    first_ = true;
    return *this;
  }
  void Num(double v) {
    Sep();
    std::fprintf(out_, "%.17g", v);
  }
  void Int(uint64_t v) {
    Sep();
    std::fprintf(out_, "%llu", static_cast<unsigned long long>(v));
  }
  void Bool(bool v) {
    Sep();
    std::fputs(v ? "true" : "false", out_);
  }
  void Text(const std::string& s) {
    Sep();
    Str(s);
  }
  void Hex(uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    Text(buf);
  }

 private:
  void Sep() {
    if (!first_) {
      std::fputc(',', out_);
    }
    first_ = false;
  }
  void Str(const std::string& s) {
    std::fputc('"', out_);
    for (char c : s) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', out_);
        std::fputc(c, out_);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(out_, "\\u%04x", c);
      } else {
        std::fputc(c, out_);
      }
    }
    std::fputc('"', out_);
  }

  std::FILE* out_;
  bool first_ = true;
};

void WriteOp(Json& j, const OpRecord& op) {
  j.Open('{');
  j.Key("kind").Text(op.kind);
  j.Key("key").Text(op.key);
  j.Key("cycle").Num(op.cycle);
  j.Key("checked").Bool(op.checked);
  j.Key("ms").Num(op.ms);
  j.Key("vm_days").Num(op.vm_days);
  j.Key("rack_days").Num(op.rack_days);
  j.Key("digest").Hex(op.digest);
  j.Key("error").Text(op.error);
  const std::pair<const char*, double> nums[] = {
      {"home_j", op.home_j},
      {"consolidation_j", op.consolidation_j},
      {"memory_server_j", op.memory_server_j},
      {"baseline_j", op.baseline_j},
      {"savings", op.savings},
      {"delay_sum_s", op.delay_sum_s},
      {"lower_bound_j", op.lower_bound_j},
      {"schedule_j", op.schedule_j},
      {"local_savings", op.local_savings},
      {"assisted_savings", op.assisted_savings},
      {"global_savings", op.global_savings},
  };
  for (const auto& [key, value] : nums) {
    j.Key(key).Num(value);
  }
  const std::pair<const char*, uint64_t> counts[] = {
      {"delay_count", op.delay_count},
      {"events", op.events},
      {"migrations", op.migrations},
      {"host_wakes", op.host_wakes},
      {"faults_injected", op.faults_injected},
      {"faults_recovered", op.faults_recovered},
      {"migrated_bytes", op.migrated_bytes},
      {"checks", op.checks},
      {"violations", op.violations},
      {"drains", op.drains},
      {"vms_drained", op.vms_drained},
  };
  for (const auto& [key, value] : counts) {
    j.Key(key).Int(value);
  }
  j.Close('}');
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecorder::Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  Json j(out);
  j.Open('[');
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecorder::Span& s = spans[i];
    j.Open('{');
    j.Key("id").Int(i);
    j.Key("name").Text(s.name);
    j.Key("module").Text(s.module);
    j.Key("parent").Num(s.parent);
    j.Key("op").Num(s.op);
    j.Key("items").Int(s.items);
    j.Key("start_ns").Int(s.start_ns);
    j.Key("end_ns").Int(s.end_ns);
    j.Close('}');
    std::fputc('\n', out);
  }
  j.Close(']');
  std::fputc('\n', out);
  return std::fclose(out) == 0;
}

struct CycleRecord {
  bool traced = false;
  double wall_s = 0.0;
};

int Main(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "oasis_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Context ctx;
  ctx.seed = args.seed;
  oasis::prof::Profiler& profiler = oasis::prof::Profiler::Instance();
  profiler.SetMode(oasis::prof::ProfMode::kOff);

  // Set-up, repeated: every repetition must rebuild identical inputs.
  std::vector<double> setup_s;
  std::vector<uint64_t> input_digests;
  ctx.spans.set_enabled(args.trace);
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const uint64_t start = NowNs();
    workload->Setup(ctx);
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    input_digests.push_back(workload->InputDigest());
  }

  // The closed loop. Traced cycles alternate with untraced ones.
  if (args.trace) {
    profiler.Reset();
    profiler.LabelCurrentThread("main");
  }
  std::vector<CycleRecord> cycles;
  size_t timed_ops = 0;
  const uint64_t loop_start = NowNs();
  for (int cycle = 0;; ++cycle) {
    const double elapsed = static_cast<double>(NowNs() - loop_start) * 1e-9;
    if ((elapsed >= args.seconds && timed_ops >= kMinTimedOps) || elapsed >= kHardStopSeconds) {
      break;
    }
    CycleRecord record;
    record.traced = args.trace && cycle % 2 == 0;
    ctx.spans.set_enabled(record.traced);
    profiler.SetMode(record.traced ? oasis::prof::ProfMode::kSummary
                                   : oasis::prof::ProfMode::kOff);
    ctx.cycle = cycle;
    const size_t ops_before = ctx.ops.size();
    const uint64_t start = NowNs();
    workload->RunCycle(ctx);
    record.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
    timed_ops += ctx.ops.size() - ops_before;
    cycles.push_back(record);
  }
  profiler.SetMode(oasis::prof::ProfMode::kOff);
  const oasis::prof::Report report = profiler.Collect(/*reset=*/true);

  ctx.cycle = -1;
  ctx.spans.set_enabled(args.trace);
  workload->Verify(ctx);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  if (args.trace && !args.spans_path.empty() &&
      !WriteSpans(args.spans_path, ctx.spans.spans())) {
    std::fprintf(stderr, "oasis_bench: cannot write %s\n", args.spans_path.c_str());
    return 1;
  }

  Json j(stdout);
  j.Open('{');
  j.Key("workload").Text(args.workload);
  j.Key("seed").Int(args.seed);
  j.Key("trace").Bool(args.trace);
  j.Key("setup_s").Open('[');
  for (double s : setup_s) {
    j.Num(s);
  }
  j.Close(']');
  j.Key("input_digests").Open('[');
  for (uint64_t d : input_digests) {
    j.Hex(d);
  }
  j.Close(']');
  j.Key("cycles").Open('[');
  for (const CycleRecord& c : cycles) {
    j.Open('{');
    j.Key("traced").Bool(c.traced);
    j.Key("wall_s").Num(c.wall_s);
    j.Close('}');
  }
  j.Close(']');
  j.Key("peak_rss_mib").Num(peak_rss_mib);
  j.Key("prof").Open('{');
  {
    double dispatch_s = 0.0;
    double heap_pop_s = 0.0;
    uint64_t events = 0;
    for (const oasis::prof::PhaseStats& phase : report.phases) {
      if (std::string(phase.name) == oasis::prof::PhaseName(oasis::prof::Phase::kSimDispatch)) {
        dispatch_s = phase.total_s;
        events = phase.count;
      } else if (std::string(phase.name) ==
                 oasis::prof::PhaseName(oasis::prof::Phase::kSimHeapPop)) {
        heap_pop_s = phase.total_s;
      }
    }
    j.Key("sim_dispatch_s").Num(dispatch_s);
    j.Key("sim_heap_pop_s").Num(heap_pop_s);
    j.Key("sim_events").Int(events);
    j.Key("parallel_efficiency").Num(report.parallel_efficiency);
    j.Key("worker_idle_share").Num(report.worker_idle_share);
    j.Key("merge_serial_fraction").Num(report.merge_serial_fraction);
    j.Key("steals").Int(report.counts[static_cast<int>(oasis::prof::Count::kPoolSteals)]);
  }
  j.Close('}');
  j.Key("ops").Open('[');
  for (const OpRecord& op : ctx.ops) {
    WriteOp(j, op);
  }
  j.Close(']');
  j.Close('}');
  std::fputc('\n', stdout);
  return std::fflush(stdout) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace oasisbench

int main(int argc, char** argv) {
  oasisbench::Args args;
  if (!oasisbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: oasis_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n");
    return 2;
  }
  try {
    return oasisbench::Main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oasis_bench: %s\n", e.what());
    return 1;
  }
}
