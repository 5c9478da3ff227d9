// Wall-clock profiling layer.
//
// Everything else in src/obs observes the *simulated* clock; this module
// observes where the *wall clock* goes — the measurement substrate for the
// parallel runner's scaling work (ROADMAP item 1). Instrumentation sites
// wrap a phase in a ProfScope:
//
//     prof::ProfScope scope(prof::Phase::kRunSim);   // two clock reads
//
// Samples land in lock-free per-thread buffers (each thread owns its buffer
// outright; the only synchronization is a mutex on first-use registration),
// aggregate into log-linear obs::Histogram instances per phase, and roll up
// into a prof::Report: per-phase wall-clock breakdown (count / total /
// p50 / p95 / p99 / max), per-worker busy/idle/steal rows, parallel
// efficiency, the serial merge-phase share — the printed diagnosis for the
// jobs=N scaling loss — plus the trace-ring and metrics-merge drop counts so
// silently truncated observability is visible.
//
// The modes (a ProfConfig for ProfSession; RunMain parses it from
// OASIS_PROF):
//   off (default)  zero clock reads: every site gates on one relaxed atomic
//                  load and records nothing.
//   summary        phase histograms + counters; report to stderr.
//   timeline       summary plus per-worker timeline rows, exported into the
//                  Chrome trace (OASIS_TRACE) as wall-clock tracks under a
//                  second process ("oasis-wall").
//
// The profiler never touches simulation state, RNG streams, or the sim-time
// collectors' contents (timeline export appends to the trace *file* only,
// in timeline mode), so goldens and metric digests are byte-identical in
// every mode. All report output goes to stderr — the obs-tagged wall-clock
// channel excluded from golden capture (goldens pin stdout).
//
// Threading contract: recording is safe from any thread at any time;
// Collect()/Reset() must not run concurrently with recording threads (call
// them after ThreadPool::Wait() or pool teardown, as bench/perf_sweep and
// ProfSession do).

#ifndef OASIS_SRC_OBS_PROF_H_
#define OASIS_SRC_OBS_PROF_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace oasis {
namespace prof {

enum class ProfMode {
  kOff,
  kSummary,   // histograms + counters, stderr report
  kTimeline,  // summary + per-worker wall-clock tracks in the Chrome trace
};

const char* ProfModeName(ProfMode mode);

// Parses a mode name ("0", "off" -> off; "1", "on", "summary" -> summary;
// "2", "timeline" -> timeline). Returns false on any other value.
bool ParseProfMode(const std::string& value, ProfMode* out);

struct ProfConfig {
  ProfMode mode = ProfMode::kOff;

  bool Enabled() const { return mode != ProfMode::kOff; }
};

// The instrumented wall-clock phases. Timeline-grade phases (coarse, a few
// per run) also emit per-worker timeline rows in kTimeline mode; the
// per-event simulator phases are summary-only (histograms), since millions
// of rows would drown any timeline.
enum class Phase : int {
  kRunParallel = 0,  // one exp::RunParallel call, end to end (main thread)
  kRunSetup,         // run-local obs::RunContext allocation loop (serial)
  kRunSim,           // one ClusterSimulation::Run (worker or serial path)
  kRunMerge,         // serial plan-order merge of run contexts
  kRunContextCtor,   // one obs::RunContext construction
  kPoolTaskWait,     // submit -> pop latency of a pool task
  kPoolTaskRun,      // pool task execution on a worker
  kPoolIdle,         // worker parked with nothing to run
  kSimHeapPop,       // event-queue pop (heap op)        [per event]
  kSimDispatch,      // event closure execution          [per event]
  kCheckWalk,        // one cluster invariant walk (checker installed only)
  kPhaseCount,
};
inline constexpr int kNumPhases = static_cast<int>(Phase::kPhaseCount);

const char* PhaseName(Phase phase);
bool PhaseIsTimeline(Phase phase);

// Contention / allocation counters, accumulated per thread like the phases.
enum class Count : int {
  kPoolOwnPops = 0,  // tasks popped from the worker's own deque
  kPoolSteals,       // tasks stolen from a sibling's deque
  kPoolWakes,        // Submit-side condition-variable notifications
  kTasksRun,
  kRunContexts,      // obs::RunContext constructions
  kCountCount,
};
inline constexpr int kNumCounts = static_cast<int>(Count::kCountCount);

const char* CountName(Count count);

// One aggregated phase in a Report. Durations in seconds.
struct PhaseStats {
  const char* name = "";
  uint64_t count = 0;
  double total_s = 0.0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

// One recording thread's roll-up (buffers with the same label merge).
struct WorkerRow {
  std::string label;
  uint64_t tasks = 0;
  uint64_t steals = 0;
  double busy_s = 0.0;  // kPoolTaskRun total
  double idle_s = 0.0;  // kPoolIdle total
};

// The wall-clock diagnosis perf_sweep embeds in BENCH_sweep.json. The
// scaling decomposition is phrased against the profiled RunParallel wall
// time: parallel_efficiency = worker busy / (jobs * wall); the serial
// fractions say where the non-parallel wall went. The table's share column
// is phrased against the collection window instead (see Share), so it also
// holds for phases recorded outside RunParallel.
struct Report {
  ProfMode mode = ProfMode::kOff;
  int jobs = 0;
  double wall_s = 0.0;    // total kRunParallel time in the collection window
  double window_s = 0.0;  // wall time since the window opened (last reset)
  int threads = 0;        // threads that recorded a phase sample in the window
  std::vector<PhaseStats> phases;          // only phases with samples
  std::array<uint64_t, kNumCounts> counts{};
  std::vector<WorkerRow> workers;          // only pool workers
  double parallel_efficiency = 0.0;
  double merge_serial_fraction = 0.0;  // kRunMerge total / wall
  double setup_fraction = 0.0;         // kRunSetup total / wall
  double worker_idle_share = 0.0;      // idle / (busy + idle) across workers
  const char* bottleneck = "";         // named top scaling loss
  uint64_t timeline_events = 0;
  uint64_t timeline_dropped = 0;
  // Observability drop accounting (satellite of the same PR): nonzero means
  // the exported trace/metrics silently lost data.
  uint64_t trace_dropped = 0;
  uint64_t metrics_merge_dropped = 0;

  bool HasSamples() const { return !phases.empty(); }

  // The phase's share of the thread time available in the window:
  // total / (window * threads). A thread runs one instance of a phase at a
  // time, so no share exceeds 1.
  double Share(const PhaseStats& phase) const;

  // Human-readable table, each line tagged "[prof]" (stderr channel).
  void WriteTable(std::ostream& out) const;
  // JSON object (no trailing newline); `indent` spaces prefix every line.
  void WriteJson(std::ostream& out, int indent) const;
};

class Profiler {
 public:
  static Profiler& Instance();

  // The hot-path gate: one relaxed atomic load, zero clock reads when off.
  static bool Enabled() {
    return Instance().mode_.load(std::memory_order_relaxed) != ProfMode::kOff;
  }
  ProfMode mode() const { return mode_.load(std::memory_order_relaxed); }
  void SetMode(ProfMode mode);

  // Monotonic nanoseconds (std::chrono::steady_clock).
  static uint64_t NowNs();

  // Records one completed span into the calling thread's buffer: histogram
  // always, timeline row when the mode is kTimeline and the phase is
  // timeline-grade. No-op when the profiler is off.
  void RecordSpan(Phase phase, uint64_t start_ns, uint64_t end_ns);
  void AddCount(Count count, uint64_t n = 1);

  // Labels the calling thread's buffer ("main", "worker3", ...) for the
  // per-worker report rows and timeline track names.
  void LabelCurrentThread(const char* prefix, int index = -1);

  // Remembers the worker count of the most recent parallel region, for the
  // report's efficiency denominator.
  void NoteJobs(int jobs);

  // Rolls every thread buffer into a Report. In kTimeline mode the buffered
  // timeline rows are first exported into the *global* obs tracer (wall
  // tracks, see obs::Tracer::WallComplete) when tracing is enabled. With
  // `reset` the buffers are zeroed afterwards, opening a fresh collection
  // window (bench/perf_sweep collects once per sweep point). Must not run
  // concurrently with recording threads.
  Report Collect(bool reset);

  // Zeroes every thread buffer without reporting and opens a new window.
  void Reset();

 private:
  struct ThreadProf;

  Profiler();
  ThreadProf* BufferForThisThread();

  std::atomic<ProfMode> mode_{ProfMode::kOff};
  std::atomic<int> jobs_{1};
  uint64_t epoch_ns_ = 0;  // timeline timestamps are relative to this
  uint64_t window_start_ns_ = 0;  // the collection window opened here
  std::mutex mu_;          // guards buffers_ registration and Collect/Reset
  std::vector<std::unique_ptr<ThreadProf>> buffers_;
};

// RAII phase timer. Reads the clock only when the profiler is enabled at
// construction; a mode flip mid-scope still records (the sample is already
// paid for) — flips only happen at session boundaries anyway.
class ProfScope {
 public:
  explicit ProfScope(Phase phase) : phase_(phase) {
    if (Profiler::Enabled()) {
      start_ns_ = Profiler::NowNs();
      armed_ = true;
    }
  }
  ~ProfScope() {
    if (armed_) {
      Profiler::Instance().RecordSpan(phase_, start_ns_, Profiler::NowNs());
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Phase phase_;
  uint64_t start_ns_ = 0;
  bool armed_ = false;
};

// RAII: sets the profiler's mode for a binary's main. RunMain opens it
// *after* the ObsScope, so Finish() (destructor order) runs before the trace
// file is exported and timeline rows make it into the Chrome JSON.
// On destruction it collects whatever the binary has not collected itself
// and prints the report table to stderr (skipped when empty, so harnesses
// like perf_sweep that Collect(reset=true) per phase report exactly once).
class ProfSession {
 public:
  explicit ProfSession(const ProfConfig& config);
  ~ProfSession();
  ProfSession(const ProfSession&) = delete;
  ProfSession& operator=(const ProfSession&) = delete;

  // Collects, reports to stderr, and disables the profiler. Idempotent.
  void Finish();

  const ProfConfig& config() const { return config_; }

 private:
  ProfConfig config_;
  bool finished_ = false;
};

}  // namespace prof
}  // namespace oasis

#endif  // OASIS_SRC_OBS_PROF_H_
