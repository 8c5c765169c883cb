#pragma once

// Shared declarations of the repository benchmark (see README.md).
//
// Every workload runs p = 4 pipeline devices, L = 8 layers, 2 heads,
// s = 32 tokens and m = 8 microbatches per iteration with SGD. A workload
// fixes the model width, vocabulary, schedule flavor, output algorithm,
// transport and precision; the seed fixes weights, data and faults.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/output_layer_shard.h"
#include "fault/fault_injector.h"
#include "model/gpt.h"
#include "runtime/pipeline_trainer.h"
#include "trace.h"

namespace vocab::transport {
class Transport;
}

namespace vpbench {

inline constexpr int kDevices = 4;
inline constexpr int kLayers = 8;
inline constexpr int kHeads = 2;
inline constexpr std::int64_t kSeqLen = 32;
inline constexpr int kMicrobatches = 8;
inline constexpr float kLearningRate = 0.05f;

enum class Backend { kThreads, kShm, kTcp };

[[nodiscard]] const char* to_string(Backend backend);

struct Workload {
  std::string name;
  std::int64_t hidden = 64;
  std::int64_t vocab = 211;
  vocab::PipelineFlavor flavor = vocab::PipelineFlavor::OneFOneBVocab;
  vocab::OutputAlgo algo = vocab::OutputAlgo::Alg2;
  Backend backend = Backend::kThreads;
  bool bf16 = false;
  /// Run under ResilientTrainer with a seeded ThrowInOp plan (~1 fault in
  /// 5 iterations) and a checkpoint every iteration.
  bool resilient = false;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& find_workload(const std::string& name);

[[nodiscard]] vocab::GptConfig model_config(const Workload& w);

/// A fresh in-process transport of the given kind.
[[nodiscard]] std::unique_ptr<vocab::transport::Transport> make_transport(Backend backend);

/// Seed-derived inputs: initial weights, a corpus yielding fresh
/// microbatches every iteration, and (resilient workloads) the fault plan,
/// covering a run of `seconds`.
struct Inputs {
  Inputs(const Workload& w, std::uint64_t seed, double seconds);

  [[nodiscard]] std::vector<vocab::Sample> batch(std::int64_t iteration) const;

  vocab::GptWeights weights;
  vocab::SyntheticCorpus corpus;
  vocab::FaultPlan faults;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< checkpoints and the trace file go here
  /// Self-test hook: perturb one expected loss, so the correctness check
  /// must count a failure.
  bool corrupt_expected = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- measurement helpers (workloads.cpp) ----------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Process user+sys CPU seconds so far.
[[nodiscard]] double process_cpu_seconds();
/// Machine-wide CPU ticks from /proc/stat (zeros where it is unreadable).
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();
/// Share of the CPU ticks between two readings that the hypervisor stole.
[[nodiscard]] double steal_fraction(const CpuTicks& a, const CpuTicks& b);
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The workload's trainer, whichever wrapper it needs: a PipelineTrainer on
/// its own transport (with bf16 enabled when the workload asks), or a
/// ResilientTrainer with the seeded fault plan.
class Session {
 public:
  Session(const Workload& w, const Inputs& inputs, vocab::GptWeights weights,
          const std::string& checkpoint_path, Backend backend);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  float step(const std::vector<vocab::Sample>& batch);
  [[nodiscard]] vocab::PipelineTrainer& trainer();
  /// Failed attempts the ResilientTrainer recovered from (0 otherwise).
  [[nodiscard]] int faults_observed() const;
  [[nodiscard]] int recoveries() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One loss the program returned, for the correctness check.
struct Observed {
  std::int64_t iteration = 0;
  float loss = 0.0f;
};

/// Check every observed loss against the workload's reference and return
/// how many differ. vocab-heavy compares with ReferenceTrainer within
/// 5e-3 * (1 + |ref|); the other workloads require bit equality with the
/// same configuration on the threads backend without faults. `corrupt`
/// perturbs the last expected loss (the self-test hook).
[[nodiscard]] long long count_mismatches(const Workload& w, const Inputs& inputs,
                                         const std::vector<Observed>& observed, bool corrupt,
                                         std::string* check);

/// The simulator's makespan for the schedule the workload's trainer runs
/// (for Auto, the one the search picks), beside which the benchmark prints
/// the measured median iteration.
struct Prediction {
  std::string schedule;
  double iter_ms = 0.0;
};
[[nodiscard]] Prediction predict_iteration(const Workload& w);

/// The untraced run: end-to-end metrics.
[[nodiscard]] RunResult run_end_to_end(const Workload& w, const RunOptions& opt);
/// The traced run: per-layer metrics and the span file (layers.cpp).
[[nodiscard]] RunResult run_traced(const Workload& w, const RunOptions& opt);

}  // namespace vpbench
