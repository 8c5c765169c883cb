#pragma once

// Helper for constructing PipelineSchedules from building-block offsets.
//
// Generators create ops with absolute *slot* times (offset + microbatch ×
// interval, per the paper's §5.2 uniform-repetition methodology) and the
// builder sorts each device's lanes by slot to obtain the issue order. The
// simulator then derives real timing purely from dependencies, so the slots
// only need to induce the right *order*, not exact times.

#include <string>
#include <vector>

#include "schedule/ops.h"

namespace vocab {

class ScheduleBuilder {
 public:
  ScheduleBuilder(std::string name, int num_devices, int num_microbatches);

  /// Create an op and record its issue slot. Returns the op id.
  /// `op.id` is assigned by the builder.
  int add(Op op, double slot);

  /// Create one collective group: an op on each device of `devices` with the
  /// given duration and per-device dependency list. Returns the member ids
  /// (parallel to `devices`). A single-device "group" (one-device pipelines)
  /// emits a plain Collective-kind op with no group id.
  std::vector<int> add_collective(const std::vector<int>& devices, Stream stream,
                                  double duration, int microbatch, const std::string& label,
                                  const std::vector<std::vector<int>>& per_device_deps,
                                  double slot);

  /// As above with a per-member issue slot (lane positions may differ per
  /// device as long as the relative order of collectives agrees everywhere).
  std::vector<int> add_collective(const std::vector<int>& devices, Stream stream,
                                  double duration, int microbatch, const std::string& label,
                                  const std::vector<std::vector<int>>& per_device_deps,
                                  const std::vector<double>& slots);

  /// Append a dependency to an existing op.
  void add_dep(int op_id, int dep_id);

  /// Add alloc/free bytes to an existing op.
  void add_alloc(int op_id, double bytes);
  void add_free(int op_id, double bytes);

  [[nodiscard]] const Op& op(int id) const;

  /// Sort lanes by slot (ties: microbatch, then creation order) and emit the
  /// validated schedule.
  PipelineSchedule finalize(std::vector<double> base_bytes);

 private:
  std::string name_;
  int num_devices_;
  int num_microbatches_;
  int next_collective_ = 0;
  std::vector<Op> ops_;
  std::vector<double> slots_;  // parallel to ops_
};

}  // namespace vocab
