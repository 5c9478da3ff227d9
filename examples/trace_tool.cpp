// Trace tooling: generate, inspect and convert the VDI activity traces the
// simulation consumes.
//
//   trace_tool gen  <path> <users> <weekday|weekend> [seed]   generate a trace
//   trace_tool stats <path>                                   summarize a trace
//
// The text format is stable (see src/trace/trace_io.h), so traces can be
// versioned, hand-edited, and replayed into vdi_farm_day.

#include <cstdio>
#include <cstring>

#include "src/run/run_options.h"
#include "src/trace/trace_generator.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"

namespace oasis {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  trace_tool gen <path> <users> <weekday|weekend> [seed]\n"
               "  trace_tool stats <path>\n");
  return 2;
}

// A malformed number on the gen command line: one usage line naming it.
int BadGenArgument(const char* what, const char* value, const Status& error) {
  std::fprintf(stderr,
               "usage: trace_tool gen <path> <users> <weekday|weekend> [seed]: "
               "%s \"%s\" is %s\n",
               what, value, error.message().c_str());
  return 2;
}

int Generate(const RunOptions& options, int argc, char** argv) {
  if (argc < 5) {
    return Usage();
  }
  const char* path = argv[2];
  int users = 0;
  if (Status status = ParsePositiveInt(argv[3], &users); !status.ok()) {
    return BadGenArgument("users", argv[3], status);
  }
  DayKind kind;
  if (std::strcmp(argv[4], "weekday") == 0) {
    kind = DayKind::kWeekday;
  } else if (std::strcmp(argv[4], "weekend") == 0) {
    kind = DayKind::kWeekend;
  } else {
    return Usage();
  }
  // An explicit CLI seed wins over OASIS_SEED.
  uint64_t seed = options.seed.value_or(42);
  if (argc > 5) {
    if (Status status = ParseSeed(argv[5], &seed); !status.ok()) {
      return BadGenArgument("seed", argv[5], status);
    }
  }

  TraceGenerator generator(TraceGeneratorConfig{}, seed);
  TraceFile file{kind, generator.GenerateTraceSet(users, kind)};
  Status status = WriteTraceToPath(path, file);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %d %s user-days to %s (seed %llu)\n", users, DayKindName(kind), path,
              static_cast<unsigned long long>(seed));
  return 0;
}

int Stats(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  StatusOr<TraceFile> file = ReadTraceFromPath(argv[2]);
  if (!file.ok()) {
    std::fprintf(stderr, "read failed: %s\n", file.status().ToString().c_str());
    return 1;
  }
  const TraceSet& set = file->users;
  std::printf("%zu %s user-days\n", set.size(), DayKindName(file->kind));
  std::printf("  peak simultaneous activity : %.1f%% at %02.0f:%02.0f\n",
              PeakActiveFraction(set) * 100.0, HourOfInterval(PeakInterval(set)),
              60.0 * (HourOfInterval(PeakInterval(set)) -
                      static_cast<int>(HourOfInterval(PeakInterval(set)))));
  std::printf("  mean activity              : %.1f%%\n", MeanActiveFraction(set) * 100.0);
  std::printf("  all-idle fraction (30 VMs) : %.1f%%\n",
              MeanAllIdleFraction(set, 30) * 100.0);

  // A 24-bucket sparkline of the aggregate activity curve.
  std::vector<int> counts = ActiveCountSeries(set);
  std::printf("  hourly active users        :");
  for (int h = 0; h < 24; ++h) {
    int peak = 0;
    for (int i = h * 12; i < (h + 1) * 12; ++i) {
      peak = std::max(peak, counts[static_cast<size_t>(i)]);
    }
    std::printf(" %d", peak);
  }
  std::printf("\n");
  return 0;
}

int Run(const RunOptions& options, int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  if (std::strcmp(argv[1], "gen") == 0) {
    return Generate(options, argc, argv);
  }
  if (std::strcmp(argv[1], "stats") == 0) {
    return Stats(argc, argv);
  }
  return Usage();
}

}  // namespace
}  // namespace oasis

int main(int argc, char** argv) { return oasis::RunMain(argc, argv, oasis::Run); }
