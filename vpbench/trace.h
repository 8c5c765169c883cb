#pragma once

// In-memory span recorder for the traced benchmark run.
//
// Spans come only from the benchmark's own code: one root span per
// train_iteration call and one around each replayed layer call or set-up
// step. Spans are kept in memory and written out once, when the run ends.
// A span's self time is its duration minus the part of it that its child
// spans cover.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vpbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  int parent = -1;              ///< index into Tracer::spans(); -1 for a root
  std::int64_t iteration = -1;  ///< training iteration id; -1 outside one
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Open a span as a child of the innermost open one; returns its id.
  int begin(std::string name, std::int64_t iteration = -1);
  void end(int id);
  /// Record an already-timed interval (e.g. measured on a rank thread)
  /// under the innermost open span.
  void record(std::string name, Clock::time_point start, Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations in seconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Per span: duration minus the union of its direct children's intervals.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  /// Write every span (with its self time) as JSON.
  void write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t since_origin(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::int64_t iteration = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), iteration)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace vpbench
