#include "src/obs/prof.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>

#include "src/obs/trace.h"

namespace oasis {
namespace prof {
namespace {

struct PhaseInfo {
  const char* name;
  bool timeline;
};

// Order must match enum Phase.
constexpr PhaseInfo kPhaseInfo[kNumPhases] = {
    {"exp.run_parallel", true},    {"exp.run_setup", true},
    {"exp.run_sim", true},         {"exp.merge", true},
    {"obs.run_context_ctor", false}, {"pool.task_wait", false},
    {"pool.task_run", true},       {"pool.idle", true},
    {"sim.heap_pop", false},       {"sim.dispatch", false},
    {"check.walk", false},
};

// Order must match enum Count.
constexpr const char* kCountName[kNumCounts] = {
    "pool.own_pops", "pool.steals", "pool.wakes", "pool.tasks", "obs.run_contexts",
};

// Per-thread timeline rows are bounded so a runaway phase cannot grow
// memory without bound; drops are counted and reported.
constexpr size_t kTimelineCap = 1 << 15;

}  // namespace

const char* ProfModeName(ProfMode mode) {
  switch (mode) {
    case ProfMode::kOff:
      return "off";
    case ProfMode::kSummary:
      return "summary";
    case ProfMode::kTimeline:
      return "timeline";
  }
  return "?";
}

const char* PhaseName(Phase phase) { return kPhaseInfo[static_cast<int>(phase)].name; }

bool PhaseIsTimeline(Phase phase) { return kPhaseInfo[static_cast<int>(phase)].timeline; }

const char* CountName(Count count) { return kCountName[static_cast<int>(count)]; }

bool ParseProfMode(const std::string& value, ProfMode* out) {
  if (value == "0" || value == "off") {
    *out = ProfMode::kOff;
  } else if (value == "1" || value == "on" || value == "summary") {
    *out = ProfMode::kSummary;
  } else if (value == "2" || value == "timeline") {
    *out = ProfMode::kTimeline;
  } else {
    return false;
  }
  return true;
}

// --- Profiler ----------------------------------------------------------------

struct Profiler::ThreadProf {
  explicit ThreadProf(int track_index) : track(track_index) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "thread-%d", track_index);
    label = buf;
    for (int p = 0; p < kNumPhases; ++p) {
      hist[p] = registry.histogram(kPhaseInfo[p].name);
    }
  }

  struct TimelineRow {
    Phase phase;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  int track;
  std::string label;  // written by the owner thread only
  obs::MetricsRegistry registry;
  std::array<obs::Histogram*, kNumPhases> hist{};
  std::array<uint64_t, kNumCounts> counts{};
  std::vector<TimelineRow> timeline;
  uint64_t timeline_dropped = 0;

  void ResetValues() {
    registry.ResetValues();
    counts.fill(0);
    timeline.clear();
    timeline_dropped = 0;
  }
};

Profiler::Profiler() : epoch_ns_(NowNs()), window_start_ns_(epoch_ns_) {}

Profiler& Profiler::Instance() {
  static Profiler* profiler = new Profiler();  // never destroyed
  return *profiler;
}

uint64_t Profiler::NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Profiler::SetMode(ProfMode mode) { mode_.store(mode, std::memory_order_relaxed); }

Profiler::ThreadProf* Profiler::BufferForThisThread() {
  // Cached per thread: after first-use registration (the only lock), every
  // record is a plain write into a buffer this thread owns outright.
  static thread_local ThreadProf* t_prof = nullptr;
  if (t_prof == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadProf>(static_cast<int>(buffers_.size())));
    t_prof = buffers_.back().get();
  }
  return t_prof;
}

void Profiler::RecordSpan(Phase phase, uint64_t start_ns, uint64_t end_ns) {
  ProfMode mode = mode_.load(std::memory_order_relaxed);
  if (mode == ProfMode::kOff) {
    return;
  }
  ThreadProf* buf = BufferForThisThread();
  uint64_t dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  buf->hist[static_cast<int>(phase)]->Record(static_cast<double>(dur_ns) * 1e-9);
  if (mode == ProfMode::kTimeline && PhaseIsTimeline(phase)) {
    if (buf->timeline.size() < kTimelineCap) {
      buf->timeline.push_back({phase, start_ns, end_ns});
    } else {
      ++buf->timeline_dropped;
    }
  }
}

void Profiler::AddCount(Count count, uint64_t n) {
  if (mode_.load(std::memory_order_relaxed) == ProfMode::kOff) {
    return;
  }
  BufferForThisThread()->counts[static_cast<int>(count)] += n;
}

void Profiler::LabelCurrentThread(const char* prefix, int index) {
  if (mode_.load(std::memory_order_relaxed) == ProfMode::kOff) {
    return;
  }
  ThreadProf* buf = BufferForThisThread();
  if (index >= 0) {
    char label[48];
    std::snprintf(label, sizeof(label), "%s%d", prefix, index);
    buf->label = label;
  } else {
    buf->label = prefix;
  }
}

void Profiler::NoteJobs(int jobs) { jobs_.store(jobs, std::memory_order_relaxed); }

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) {
    buf->ResetValues();
  }
  window_start_ns_ = NowNs();
}

Report Profiler::Collect(bool reset) {
  std::lock_guard<std::mutex> lock(mu_);
  Report report;
  report.mode = mode_.load(std::memory_order_relaxed);
  report.jobs = jobs_.load(std::memory_order_relaxed);
  const uint64_t now_ns = NowNs();
  report.window_s = static_cast<double>(now_ns - window_start_ns_) * 1e-9;

  // Drop accounting is read before the timeline export below, so the
  // report never blames the profiler's own wall events for evictions.
  obs::Tracer& tracer = obs::Tracer::Global();
  report.trace_dropped = tracer.dropped();
  report.metrics_merge_dropped = obs::MetricsRegistry::Global().merge_dropped();

  // Merge every thread's histograms bucket-wise, then summarize the phases
  // that actually ran.
  obs::MetricsRegistry merged;
  for (const auto& buf : buffers_) {
    merged.MergeFrom(buf->registry);
  }
  std::array<double, kNumPhases> totals{};
  for (int p = 0; p < kNumPhases; ++p) {
    const obs::Histogram* h = merged.histogram(kPhaseInfo[p].name);
    if (h == nullptr || h->count() == 0) {
      continue;
    }
    totals[p] = h->sum();
    PhaseStats stats;
    stats.name = kPhaseInfo[p].name;
    stats.count = h->count();
    stats.total_s = h->sum();
    stats.mean_s = h->mean();
    stats.p50_s = h->Percentile(50.0);
    stats.p95_s = h->Percentile(95.0);
    stats.p99_s = h->Percentile(99.0);
    stats.max_s = h->max();
    report.phases.push_back(stats);
  }
  std::sort(report.phases.begin(), report.phases.end(),
            [](const PhaseStats& a, const PhaseStats& b) { return a.total_s > b.total_s; });

  for (const auto& buf : buffers_) {
    for (int c = 0; c < kNumCounts; ++c) {
      report.counts[c] += buf->counts[c];
    }
    report.threads += std::any_of(buf->hist.begin(), buf->hist.end(),
                                  [](const obs::Histogram* h) { return h->count() > 0; });
    report.timeline_events += buf->timeline.size();
    report.timeline_dropped += buf->timeline_dropped;
  }

  // Per-worker rows: every buffer that executed pool work, merged by label
  // (sweep steps recreate pools, so "worker0" may span several buffers).
  std::map<std::string, WorkerRow> by_label;
  for (const auto& buf : buffers_) {
    const obs::Histogram* busy = buf->hist[static_cast<int>(Phase::kPoolTaskRun)];
    const obs::Histogram* idle = buf->hist[static_cast<int>(Phase::kPoolIdle)];
    if (busy->count() == 0 && idle->count() == 0) {
      continue;
    }
    WorkerRow& row = by_label[buf->label];
    row.label = buf->label;
    row.tasks += buf->counts[static_cast<int>(Count::kTasksRun)];
    row.steals += buf->counts[static_cast<int>(Count::kPoolSteals)];
    row.busy_s += busy->sum();
    row.idle_s += idle->sum();
  }
  for (auto& [label, row] : by_label) {
    report.workers.push_back(row);
  }

  // Scaling decomposition against the profiled RunParallel wall time. The
  // serial path records no pool phases, so "busy" falls back to the
  // simulation time itself and efficiency reads as sim-share of wall.
  report.wall_s = totals[static_cast<int>(Phase::kRunParallel)];
  double busy = totals[static_cast<int>(Phase::kPoolTaskRun)];
  if (busy == 0.0) {
    busy = totals[static_cast<int>(Phase::kRunSim)];
  }
  double idle = totals[static_cast<int>(Phase::kPoolIdle)];
  if (report.wall_s > 0.0 && report.jobs > 0) {
    report.parallel_efficiency = busy / (report.wall_s * report.jobs);
    report.merge_serial_fraction = totals[static_cast<int>(Phase::kRunMerge)] / report.wall_s;
    report.setup_fraction = totals[static_cast<int>(Phase::kRunSetup)] / report.wall_s;
  }
  if (busy + idle > 0.0) {
    report.worker_idle_share = idle / (busy + idle);
  }
  if (report.wall_s <= 0.0) {
    report.bottleneck = "";
  } else if (report.parallel_efficiency >= 0.9) {
    report.bottleneck = "none (near-linear scaling)";
  } else {
    report.bottleneck = "worker idle (work starvation / imbalance)";
    double top = report.worker_idle_share;
    if (report.merge_serial_fraction > top) {
      top = report.merge_serial_fraction;
      report.bottleneck = "serial merge phase";
    }
    if (report.setup_fraction > top) {
      report.bottleneck = "serial setup (RunContext construction)";
    }
  }

  // Timeline rows become wall-clock tracks in the Chrome trace: one track
  // per recording thread under the "oasis-wall" process, timestamps in
  // microseconds since the profiler epoch.
  if (report.mode == ProfMode::kTimeline && tracer.enabled()) {
    for (const auto& buf : buffers_) {
      for (const ThreadProf::TimelineRow& row : buf->timeline) {
        tracer.WallComplete("prof", PhaseName(row.phase), buf->track,
                            static_cast<int64_t>((row.start_ns - epoch_ns_) / 1000),
                            static_cast<int64_t>((row.end_ns - row.start_ns) / 1000));
      }
    }
  }

  if (reset) {
    for (auto& buf : buffers_) {
      buf->ResetValues();
    }
    window_start_ns_ = now_ns;
  }
  return report;
}

// --- Report ------------------------------------------------------------------

double Report::Share(const PhaseStats& phase) const {
  const double available = window_s * threads;
  return available > 0.0 ? phase.total_s / available : 0.0;
}

void Report::WriteTable(std::ostream& out) const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "[prof] wall-clock profile: mode=%s jobs=%d wall=%.3fs window=%.3fs "
                "threads=%d\n",
                ProfModeName(mode), jobs, wall_s, window_s, threads);
  out << line;
  std::snprintf(line, sizeof(line), "[prof]   %-22s %10s %10s %7s %11s %11s %11s %11s\n",
                "phase", "count", "total_s", "share", "p50_us", "p95_us", "p99_us",
                "max_us");
  out << line;
  for (const PhaseStats& p : phases) {
    std::snprintf(line, sizeof(line),
                  "[prof]   %-22s %10llu %10.3f %6.1f%% %11.1f %11.1f %11.1f %11.1f\n",
                  p.name, static_cast<unsigned long long>(p.count), p.total_s,
                  100.0 * Share(p), p.p50_s * 1e6,
                  p.p95_s * 1e6, p.p99_s * 1e6, p.max_s * 1e6);
    out << line;
  }
  for (const WorkerRow& w : workers) {
    std::snprintf(line, sizeof(line),
                  "[prof]   %-10s tasks=%-5llu steals=%-4llu busy=%8.3fs idle=%8.3fs "
                  "idle_share=%5.1f%%\n",
                  w.label.c_str(), static_cast<unsigned long long>(w.tasks),
                  static_cast<unsigned long long>(w.steals), w.busy_s, w.idle_s,
                  w.busy_s + w.idle_s > 0.0 ? 100.0 * w.idle_s / (w.busy_s + w.idle_s) : 0.0);
    out << line;
  }
  bool counts_present = false;
  for (int c = 0; c < kNumCounts; ++c) {
    counts_present = counts_present || counts[c] != 0;
  }
  if (counts_present) {
    out << "[prof]   counters:";
    for (int c = 0; c < kNumCounts; ++c) {
      if (counts[c] != 0) {
        std::snprintf(line, sizeof(line), " %s=%llu", kCountName[c],
                      static_cast<unsigned long long>(counts[c]));
        out << line;
      }
    }
    out << '\n';
  }
  std::snprintf(line, sizeof(line),
                "[prof] parallel efficiency %.2f | merge-serial fraction %.1f%% | setup "
                "fraction %.1f%% | worker idle share %.1f%%\n",
                parallel_efficiency, merge_serial_fraction * 100.0, setup_fraction * 100.0,
                worker_idle_share * 100.0);
  out << line;
  if (bottleneck[0] != '\0') {
    out << "[prof] top scaling bottleneck: " << bottleneck << '\n';
  }
  if (timeline_dropped != 0) {
    std::snprintf(line, sizeof(line),
                  "[prof] WARNING: timeline dropped %llu rows (per-thread cap)\n",
                  static_cast<unsigned long long>(timeline_dropped));
    out << line;
  }
  if (trace_dropped != 0) {
    std::snprintf(line, sizeof(line),
                  "[prof] WARNING: trace ring dropped %llu events — the exported trace is "
                  "truncated (raise OASIS_TRACE_CAPACITY)\n",
                  static_cast<unsigned long long>(trace_dropped));
    out << line;
  }
  if (metrics_merge_dropped != 0) {
    std::snprintf(line, sizeof(line),
                  "[prof] WARNING: metrics merge dropped %llu instruments (kind mismatch "
                  "across run registries)\n",
                  static_cast<unsigned long long>(metrics_merge_dropped));
    out << line;
  }
}

void Report::WriteJson(std::ostream& out, int indent) const {
  std::string pad(static_cast<size_t>(indent), ' ');
  out << pad << "{\n";
  out << pad << "  \"mode\": \"" << ProfModeName(mode) << "\",\n";
  out << pad << "  \"jobs\": " << jobs << ",\n";
  out << pad << "  \"wall_s\": " << wall_s << ",\n";
  out << pad << "  \"parallel_efficiency\": " << parallel_efficiency << ",\n";
  out << pad << "  \"merge_serial_fraction\": " << merge_serial_fraction << ",\n";
  out << pad << "  \"setup_fraction\": " << setup_fraction << ",\n";
  out << pad << "  \"worker_idle_share\": " << worker_idle_share << ",\n";
  out << pad << "  \"bottleneck\": \"" << bottleneck << "\",\n";
  out << pad << "  \"timeline_events\": " << timeline_events << ",\n";
  out << pad << "  \"timeline_dropped\": " << timeline_dropped << ",\n";
  out << pad << "  \"trace_dropped\": " << trace_dropped << ",\n";
  out << pad << "  \"metrics_merge_dropped\": " << metrics_merge_dropped << ",\n";
  out << pad << "  \"counters\": {";
  for (int c = 0; c < kNumCounts; ++c) {
    out << (c > 0 ? ", " : "") << '"' << kCountName[c] << "\": " << counts[c];
  }
  out << "},\n";
  out << pad << "  \"phases\": [";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseStats& p = phases[i];
    out << (i > 0 ? "," : "") << "\n"
        << pad << "    {\"name\": \"" << p.name << "\", \"count\": " << p.count
        << ", \"total_s\": " << p.total_s << ", \"mean_s\": " << p.mean_s
        << ", \"p50_s\": " << p.p50_s << ", \"p95_s\": " << p.p95_s
        << ", \"p99_s\": " << p.p99_s << ", \"max_s\": " << p.max_s << "}";
  }
  out << (phases.empty() ? "]" : "\n" + pad + "  ]") << ",\n";
  out << pad << "  \"workers\": [";
  for (size_t i = 0; i < workers.size(); ++i) {
    const WorkerRow& w = workers[i];
    out << (i > 0 ? "," : "") << "\n"
        << pad << "    {\"label\": \"" << w.label << "\", \"tasks\": " << w.tasks
        << ", \"steals\": " << w.steals << ", \"busy_s\": " << w.busy_s
        << ", \"idle_s\": " << w.idle_s << "}";
  }
  out << (workers.empty() ? "]" : "\n" + pad + "  ]") << "\n";
  out << pad << "}";
}

// --- ProfSession -------------------------------------------------------------

ProfSession::ProfSession(const ProfConfig& config) : config_(config) {
  Profiler& profiler = Profiler::Instance();
  profiler.SetMode(config_.mode);
  if (config_.Enabled()) {
    profiler.Reset();
    profiler.LabelCurrentThread("main");
  }
}

void ProfSession::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (!config_.Enabled()) {
    return;
  }
  Profiler& profiler = Profiler::Instance();
  Report report = profiler.Collect(/*reset=*/true);
  if (report.HasSamples()) {
    report.WriteTable(std::cerr);
  }
  profiler.SetMode(ProfMode::kOff);
}

ProfSession::~ProfSession() { Finish(); }

}  // namespace prof
}  // namespace oasis
