#include "sim/pipeline_sim.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>

#include "analysis/verifier.h"
#include "common/env.h"
#include "common/error.h"

namespace vocab {

double SimResult::bubble_fraction(int device) const {
  VOCAB_CHECK(device >= 0 && device < static_cast<int>(compute_busy.size()), "bad device");
  if (makespan <= 0) return 0.0;
  return 1.0 - compute_busy[static_cast<std::size_t>(device)] / makespan;
}

double SimResult::max_peak_bytes() const {
  double best = 0.0;
  for (const double b : peak_bytes) best = std::max(best, b);
  return best;
}

double SimResult::min_peak_bytes() const {
  double best = std::numeric_limits<double>::infinity();
  for (const double b : peak_bytes) best = std::min(best, b);
  return peak_bytes.empty() ? 0.0 : best;
}

bool SimResult::any_oom() const {
  return std::any_of(oom.begin(), oom.end(), [](bool v) { return v; });
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Verification is on by default in every build type; VOCAB_VERIFY_SCHEDULES
/// (strict boolean: 0/1/false/true/off/on/no/yes) set false opts out. The
/// verifier proves deadlock-freedom, so a failure here points at the
/// generator, not at the simulation.
bool verify_precondition_enabled(SimVerify verify) {
  if (verify == SimVerify::kOn) return true;
  if (verify == SimVerify::kOff) return false;
  static const bool enabled = bool_from_env("VOCAB_VERIFY_SCHEDULES", true);
  return enabled;
}

struct Lane {
  const std::vector<int>* order = nullptr;
  std::size_t next = 0;
  double free_at = 0.0;

  [[nodiscard]] bool exhausted() const { return next >= order->size(); }
  [[nodiscard]] int head() const { return (*order)[next]; }
};

}  // namespace

SimResult simulate(const PipelineSchedule& schedule, double memory_capacity, SimVerify verify) {
  schedule.validate();
  if (verify_precondition_enabled(verify)) analysis::verify_or_throw(schedule);
  const int n = static_cast<int>(schedule.ops.size());
  const int p = schedule.num_devices;

  SimResult result;
  result.times.resize(static_cast<std::size_t>(n));
  result.compute_busy.assign(static_cast<std::size_t>(p), 0.0);
  result.peak_bytes.assign(static_cast<std::size_t>(p), 0.0);
  result.oom.assign(static_cast<std::size_t>(p), false);

  // Lanes: one per stream per device.
  std::vector<Lane> lanes(static_cast<std::size_t>(kNumStreams * p));
  for (int d = 0; d < p; ++d) {
    for (int st = 0; st < kNumStreams; ++st) {
      lanes[static_cast<std::size_t>(kNumStreams * d + st)].order =
          &schedule.devices[static_cast<std::size_t>(d)].lane(static_cast<Stream>(st));
    }
  }

  std::vector<bool> done(static_cast<std::size_t>(n), false);
  std::vector<double> end_time(static_cast<std::size_t>(n), 0.0);
  // Which lane index each op lives on (device * 2 + stream).
  auto lane_of = [&](const Op& o) {
    return static_cast<std::size_t>(kNumStreams * o.device + static_cast<int>(o.stream));
  };
  // Collective membership.
  std::map<int, std::vector<int>> collectives;
  for (const Op& o : schedule.ops) {
    if (o.collective >= 0) collectives[o.collective].push_back(o.id);
  }

  auto deps_ready_time = [&](const Op& o) -> double {
    double ready = 0.0;
    for (const int d : o.deps) {
      if (!done[static_cast<std::size_t>(d)]) return kInf;
      ready = std::max(ready, end_time[static_cast<std::size_t>(d)]);
    }
    return ready;
  };

  // Memory event log per device: (time, delta, is_free).
  std::vector<std::vector<std::pair<double, double>>> mem_events(static_cast<std::size_t>(p));

  int remaining = n;
  while (remaining > 0) {
    // Find the feasible head op (or collective) with the earliest start.
    double best_start = kInf;
    int best_lane = -1;
    bool best_is_collective = false;
    int best_collective = -1;

    for (std::size_t li = 0; li < lanes.size(); ++li) {
      Lane& lane = lanes[li];
      if (lane.exhausted()) continue;
      const Op& o = schedule.op(lane.head());
      if (o.collective >= 0) {
        // Feasible only if every member heads its lane.
        const auto& members = collectives[o.collective];
        double start = 0.0;
        bool feasible = true;
        for (const int mid : members) {
          const Op& m = schedule.op(mid);
          Lane& ml = lanes[lane_of(m)];
          if (ml.exhausted() || ml.head() != mid) {
            feasible = false;
            break;
          }
          const double dr = deps_ready_time(m);
          if (dr == kInf) {
            feasible = false;
            break;
          }
          start = std::max(start, std::max(ml.free_at, dr));
        }
        if (feasible && start < best_start) {
          best_start = start;
          best_lane = static_cast<int>(li);
          best_is_collective = true;
          best_collective = o.collective;
        }
      } else {
        const double dr = deps_ready_time(o);
        if (dr == kInf) continue;
        const double start = std::max(lane.free_at, dr);
        if (start < best_start) {
          best_start = start;
          best_lane = static_cast<int>(li);
          best_is_collective = false;
        }
      }
    }

    if (best_lane < 0) {
      // No progress possible: report the blocked heads.
      std::ostringstream oss;
      oss << "schedule '" << schedule.name << "' deadlocked with " << remaining
          << " ops remaining; blocked lane heads:";
      for (std::size_t li = 0; li < lanes.size(); ++li) {
        if (lanes[li].exhausted()) continue;
        const Op& o = schedule.op(lanes[li].head());
        oss << " [dev" << o.device << (o.stream == Stream::Comm ? " comm " : " comp ")
            << o.label << " id" << o.id << "]";
      }
      throw DeadlockError(oss.str());
    }

    auto execute = [&](int op_id, double start) {
      const Op& o = schedule.op(op_id);
      const double end = start + o.duration;
      result.times[static_cast<std::size_t>(op_id)] = {start, end};
      done[static_cast<std::size_t>(op_id)] = true;
      end_time[static_cast<std::size_t>(op_id)] = end;
      Lane& lane = lanes[lane_of(o)];
      lane.free_at = end;
      ++lane.next;
      if (o.stream == Stream::Compute && o.duration > 0) {
        result.compute_busy[static_cast<std::size_t>(o.device)] += o.duration;
      }
      if (o.alloc_bytes > 0) {
        mem_events[static_cast<std::size_t>(o.device)].emplace_back(start, o.alloc_bytes);
      }
      if (o.free_bytes > 0) {
        mem_events[static_cast<std::size_t>(o.device)].emplace_back(end, -o.free_bytes);
      }
      result.makespan = std::max(result.makespan, end);
      --remaining;
    };

    if (best_is_collective) {
      for (const int mid : collectives[best_collective]) execute(mid, best_start);
    } else {
      execute(lanes[static_cast<std::size_t>(best_lane)].head(), best_start);
    }
  }

  // Peak memory sweep per device: at equal timestamps apply frees first
  // (an op that ends exactly when another starts releases memory first —
  // the optimistic allocator a caching allocator approximates).
  for (int d = 0; d < p; ++d) {
    auto& events = mem_events[static_cast<std::size_t>(d)];
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;  // negative (free) before positive (alloc)
    });
    double cur = schedule.base_bytes[static_cast<std::size_t>(d)];
    double peak = cur;
    for (const auto& [t, delta] : events) {
      cur += delta;
      peak = std::max(peak, cur);
    }
    result.peak_bytes[static_cast<std::size_t>(d)] = peak;
    if (memory_capacity > 0 && peak > memory_capacity) {
      result.oom[static_cast<std::size_t>(d)] = true;
    }
  }

  return result;
}

}  // namespace vocab
