// Process-level observability wiring.
//
// ObsConfig holds the observability knobs; ObsScope installs them on the
// global Tracer / MetricsRegistry for the duration of a binary's main and
// exports the collected data on the way out. RunMain (src/run) parses the
// config from OASIS_TRACE, OASIS_METRICS, OASIS_TRACE_CAPACITY and
// OASIS_LOG_LEVEL and opens the ObsScope for every bench/ and examples/
// binary, so
//
//     OASIS_TRACE=trace.json ./build/bench/fig05_consolidation_latency
//
// emits a Perfetto-loadable trace with zero further plumbing.

#ifndef OASIS_SRC_OBS_OBS_H_
#define OASIS_SRC_OBS_OBS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oasis {
namespace obs {

struct ObsConfig {
  std::string trace_path;    // empty = tracing disabled; ".jsonl" suffix = JSONL
  std::string metrics_path;  // empty = metrics disabled
  size_t trace_capacity = Tracer::kDefaultCapacity;
  std::optional<LogLevel> log_level;  // unset = leave the global level alone

  bool TracingRequested() const { return !trace_path.empty(); }
  bool MetricsRequested() const { return !metrics_path.empty(); }
  bool TraceIsJsonl() const;
};

// The wall-clock/timing output channel: one "[obs] "-tagged line on stderr
// (printf formatting; the newline is appended). Golden-file tests pin
// stdout byte-for-byte, so anything nondeterministic across machines —
// wall seconds, throughput, file paths — must go through here, never
// stdout. That keeps timing output free to grow without touching
// tests/golden/.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
void TimingLine(const char* format, ...);

// RAII: enables the requested global collectors on construction, exports and
// disables them on destruction (or on an explicit Flush()).
class ObsScope {
 public:
  explicit ObsScope(const ObsConfig& config);
  ~ObsScope();
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  // Writes the trace/metrics files now and disables collection. Idempotent.
  void Flush();

  const ObsConfig& config() const { return config_; }

 private:
  ObsConfig config_;
  bool flushed_ = false;
};

}  // namespace obs
}  // namespace oasis

#endif  // OASIS_SRC_OBS_OBS_H_
