// vpbench: the repository benchmark's binary.
//
//   vpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--work-dir <dir>] [--corrupt-expected]
//
// Runs one workload from this (single) driving thread, checks every loss
// the program produced against its reference, and prints human-readable
// notes followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <malloc.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"
#include "tensor/simd.h"

extern char** environ;

namespace {

using vpbench::RunResult;

/// Clear every VOCAB_* knob the caller exported, then pin the ones the
/// benchmark depends on. Returns the names that were cleared.
std::vector<std::string> pin_environment(int nproc) {
  std::vector<std::string> cleared;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("VOCAB_", 0) == 0) cleared.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& name : cleared) ::unsetenv(name.c_str());
  // VOCAB_SCHEDULE, VOCAB_LOSS_SCALE_*, the comm timeouts and the transport
  // tuning knobs stay unset: each workload names its flavor and transport
  // in code and runs the library defaults for the rest.
  ::setenv("VOCAB_EXECUTOR", "structs", 1);
  ::setenv("VOCAB_GUARD_LEVEL", "0", 1);
  ::setenv("VOCAB_SIMD", "auto", 1);
  ::setenv("VOCAB_NUM_THREADS", std::to_string(nproc).c_str(), 1);
  ::setenv("VOCAB_TRANSPORT", "threads", 1);
  ::setenv("VOCAB_VERIFY_SCHEDULES", "1", 1);
  // One malloc arena per device thread. Without a cap glibc hands the
  // short-lived device and optimizer threads up to 8 x nproc arenas, and
  // peak RSS then depends on which ones a run happened to touch.
  mallopt(M_ARENA_MAX, vpbench::kDevices);
  return cleared;
}

std::string resolved_environment() {
  static const char* const kKnobs[] = {
      "VOCAB_SCHEDULE",      "VOCAB_EXECUTOR",          "VOCAB_GUARD_LEVEL",
      "VOCAB_SIMD",          "VOCAB_NUM_THREADS",       "VOCAB_TRANSPORT",
      "VOCAB_VERIFY_SCHEDULES", "VOCAB_LOSS_SCALE_INIT", "VOCAB_LOSS_SCALE_GROWTH_INTERVAL"};
  std::string out;
  for (const char* k : kKnobs) {
    const char* v = std::getenv(k);
    out += std::string(out.empty() ? "" : " ") + k + "=" + (v != nullptr ? v : "<unset>");
  }
  return out;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void print_result(const RunResult& r) {
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  bool finite = true;
  std::string metrics;
  for (const vpbench::Metric& m : r.metrics) {
    finite = finite && std::isfinite(m.value);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              r.correct && finite ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: vpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--corrupt-expected]\nworkloads:");
  for (const vpbench::Workload& w : vpbench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vpbench::RunOptions opt;
  opt.work_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--corrupt-expected") {
      opt.corrupt_expected = true;
    } else if (flag == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (flag == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0.0)) return usage();

  try {
    const vpbench::Workload& w = vpbench::find_workload(opt.workload);
    const int nproc = online_cpus();
    const std::vector<std::string> cleared = pin_environment(nproc);

    std::string cleared_list;
    for (const std::string& c : cleared) cleared_list += " " + c;
    std::printf("# workload %s seed %llu seconds %g trace %d\n", w.name.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    std::printf("# p=%d L=%d heads=%d s=%lld m=%d h=%lld V=%lld flavor=%s algo=%s "
                "transport=%s precision=%s%s\n",
                vpbench::kDevices, vpbench::kLayers, vpbench::kHeads,
                static_cast<long long>(vpbench::kSeqLen), vpbench::kMicrobatches,
                static_cast<long long>(w.hidden), static_cast<long long>(w.vocab),
                vocab::to_string(w.flavor), vocab::to_string(w.algo),
                vpbench::to_string(w.backend), w.bf16 ? "bf16" : "fp32",
                w.resilient ? " resilient" : "");
    std::printf("# nproc=%d simd=%s build=%s\n", nproc,
                vocab::simd::to_string(vocab::simd::active_level()), VPBENCH_BUILD_TYPE);
    std::printf("# env %s M_ARENA_MAX=%d (cleared:%s)\n", resolved_environment().c_str(),
                vpbench::kDevices,
                cleared_list.empty() ? " none" : cleared_list.c_str());
    if (nproc < vpbench::kDevices) {
      // Device threads would time-slice: no number from such a run counts.
      std::printf("# nproc %d < p %d: the run counts as failed\n", nproc, vpbench::kDevices);
      RunResult failed;
      failed.correct = false;
      failed.attempted = 1;
      failed.failed = 1;
      print_result(failed);
      return 1;
    }
    std::fflush(stdout);
    const RunResult r =
        opt.trace ? vpbench::run_traced(w, opt) : vpbench::run_end_to_end(w, opt);
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vpbench: %s\n", e.what());
    return 1;
  }
}
