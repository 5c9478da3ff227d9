#include "src/power/host_profile.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace oasis {
namespace {

std::vector<HostProfile> BuildCatalog() {
  std::vector<HostProfile> catalog;

  // The paper's measured host. Identical to a default-constructed
  // HostPowerProfile, so a fleet spelled "table1:N" matches the
  // homogeneous default watt for watt.
  HostProfile table1;
  table1.generation = "table1";
  catalog.push_back(table1);

  // A newer generation: cheaper at idle and in S3, faster to cycle, 25%
  // more memory. Its *absolute* sleep saving per parked home is smaller
  // than table1's — the gate should prefer vacating hungry hosts first.
  HostProfile efficient;
  efficient.generation = "efficient-v2";
  efficient.power.idle_watts = 78.4;
  efficient.power.watts_at_20_vms = 118.6;
  efficient.power.sleep_watts = 6.2;
  efficient.power.suspend_watts = 104.0;
  efficient.power.resume_watts = 112.5;
  efficient.power.suspend_latency = SimTime::Seconds(1.8);
  efficient.power.resume_latency = SimTime::Seconds(1.2);
  efficient.capacity_scale = 1.25;
  catalog.push_back(efficient);

  // An older box: hungrier at every operating point and no S3 support.
  // It can sponsor consolidated VMs but never sleeps; the suspend/resume
  // rows are retained only so the profile stays a complete power curve
  // (the checker forbids ever drawing them).
  HostProfile legacy;
  legacy.generation = "legacy-no-s3";
  legacy.power.idle_watts = 131.5;
  legacy.power.watts_at_20_vms = 171.3;
  legacy.power.sleep_watts = 14.8;
  legacy.power.suspend_watts = 172.0;
  legacy.power.resume_watts = 184.6;
  legacy.power.suspend_latency = SimTime::Seconds(5.0);
  legacy.power.resume_latency = SimTime::Seconds(4.1);
  legacy.s3_capable = false;
  catalog.push_back(legacy);

  return catalog;
}

}  // namespace

const std::vector<HostProfile>& HostGenerationCatalog() {
  static const std::vector<HostProfile>* catalog =
      new std::vector<HostProfile>(BuildCatalog());
  return *catalog;
}

const HostProfile* FindHostGeneration(const std::string& name) {
  for (const HostProfile& profile : HostGenerationCatalog()) {
    if (profile.generation == name) {
      return &profile;
    }
  }
  return nullptr;
}

std::string HostGenerationNames() {
  std::string names;
  for (const HostProfile& profile : HostGenerationCatalog()) {
    if (!names.empty()) {
      names += ", ";
    }
    names += profile.generation;
  }
  return names;
}

int FleetMix::CoveredHosts() const {
  int covered = 0;
  for (const FleetSegment& segment : segments) {
    covered += segment.count;
  }
  return covered;
}

Status FleetMix::Validate() const {
  for (const FleetSegment& segment : segments) {
    if (segment.count <= 0) {
      return Status::InvalidArgument("fleet segment count must be positive (" +
                                     segment.generation + ")");
    }
    if (FindHostGeneration(segment.generation) == nullptr) {
      return Status::InvalidArgument("unknown host generation '" +
                                     segment.generation + "' (catalog: " +
                                     HostGenerationNames() + ")");
    }
  }
  return Status::Ok();
}

StatusOr<FleetMix> ParseFleetMix(const std::string& spec) {
  FleetMix mix;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= entry.size()) {
      return Status::InvalidArgument("fleet entry '" + entry +
                                     "' is not generation:count");
    }
    FleetSegment segment;
    segment.generation = entry.substr(0, colon);
    const std::string count = entry.substr(colon + 1);
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(count.c_str(), &end, 10);
    if (end == count.c_str() || *end != '\0' || errno == ERANGE || parsed <= 0 ||
        parsed > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("fleet entry '" + entry +
                                     "' has a malformed count");
    }
    segment.count = static_cast<int>(parsed);
    mix.segments.push_back(segment);
  }
  if (mix.empty()) {
    return Status::InvalidArgument("empty fleet spec");
  }
  Status status = mix.Validate();
  if (!status.ok()) {
    return status;
  }
  return mix;
}

}  // namespace oasis
