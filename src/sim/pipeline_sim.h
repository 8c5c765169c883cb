#pragma once

// Discrete-event simulator for PipelineSchedules.
//
// Executes each device's two lanes (compute + comm stream) strictly in issue
// order — as CUDA streams do — with an op starting at
//   max(stream free time, all dependency end times)
// and collectives additionally synchronizing across their member devices
// (start when every member is at its lane head with deps satisfied; all
// members end together). This mirrors how NCCL collectives behave on a
// dedicated stream.
//
// Outputs per-op times, makespan, per-device bubble fractions and peak
// memory (base/resident bytes + activation high-water mark), with OOM
// flagged against the hardware capacity.

#include <string>
#include <vector>

#include "schedule/ops.h"

namespace vocab {

/// Start/end of one executed op.
struct OpInterval {
  double start = 0.0;
  double end = 0.0;
};

/// Result of simulating one PipelineSchedule.
struct SimResult {
  double makespan = 0.0;                 ///< iteration wall time (seconds)
  std::vector<OpInterval> times;         ///< per op id
  std::vector<double> compute_busy;      ///< per device, seconds of compute-stream work
  std::vector<double> peak_bytes;        ///< per device, incl. base_bytes
  std::vector<bool> oom;                 ///< peak_bytes > capacity (if capacity > 0)

  /// 1 - busy/makespan for a device.
  [[nodiscard]] double bubble_fraction(int device) const;
  /// Maximum peak bytes across devices.
  [[nodiscard]] double max_peak_bytes() const;
  /// Minimum peak bytes across devices (for per-device range plots, Fig 14).
  [[nodiscard]] double min_peak_bytes() const;
  [[nodiscard]] bool any_oom() const;
};

/// Whether simulate() statically verifies the schedule before running it.
enum class SimVerify {
  kAuto,  ///< verify unless VOCAB_VERIFY_SCHEDULES is set false (any build type)
  kOn,    ///< always verify
  kOff,   ///< never verify (e.g. deliberately broken schedules in tests)
};

/// Simulate `schedule`. If `memory_capacity` > 0, devices whose peak exceeds
/// it are flagged OOM (simulation still completes so callers can report how
/// far over the run went). Throws DeadlockError if the issue order can make
/// no progress. With verification enabled (see SimVerify), throws CheckError
/// up front if the schedule fails static verification.
SimResult simulate(const PipelineSchedule& schedule, double memory_capacity = 0.0,
                   SimVerify verify = SimVerify::kAuto);

}  // namespace vocab
