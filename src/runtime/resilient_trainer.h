#pragma once

// Iteration-level fault recovery around PipelineTrainer.
//
// The pipeline's failure protocol (fault/abort_token.h) gets every device
// thread out of a failed iteration in milliseconds, but it deliberately does
// NOT try to salvage the iteration: partial gradients, in-flight mailbox
// tensors and half-run collectives are unrecoverable state, so the trainer
// stays poisoned. This wrapper implements the recovery story on top:
//
//   1. save a checkpoint every `checkpoint_every` successful iterations
//      (atomic rename + CRC32, see runtime/checkpoint.h);
//   2. on a failed iteration, reload the last good checkpoint, rebuild a
//      fresh PipelineTrainer from it, and retry the same iteration;
//   3. after `retries_before_downgrade` failed attempts of one iteration,
//      optionally restart *elastically* on a smaller pipeline width p' < p —
//      possible precisely because Vocabulary Parallelism keeps the
//      vocabulary logically contiguous, so a full checkpoint reshard onto
//      any admissible width (checkpoint.h's reshard property).
//
// Retries are deterministic with respect to a FaultInjector plan: the
// wrapper drives FaultInjector::begin_iteration with the *global* iteration
// index, so a rebuilt trainer does not restart the injection clock, and
// one-shot fault specs do not re-fire on the retry.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "guard/anomaly.h"
#include "runtime/pipeline_trainer.h"

namespace vocab {

/// What to do when the loss / grad-norm anomaly detector flags an iteration.
enum class AnomalyAction {
  kNone,       ///< detection off
  kSkipBatch,  ///< discard the anomalous update, advance to the next batch
  kRollback,   ///< discard the update and replay the same iteration
};

/// Rolling-statistics anomaly detection over the per-iteration loss and
/// global gradient norm (guard/anomaly.h). Detection runs *after* the
/// optimizer step, so acting on a verdict means undoing the step — both
/// actions reload the last good checkpoint, which is why an active policy
/// requires checkpoint_every == 1.
struct AnomalyPolicy {
  AnomalyAction action = AnomalyAction::kNone;
  std::size_t window = 16;      ///< accepted samples kept per stream
  std::size_t min_samples = 4;  ///< warm-up before finite values can spike
  double threshold = 8.0;       ///< robust z-score cutoff
  bool watch_loss = true;
  bool watch_grad_norm = true;  ///< enables the trainer's grad-norm monitor
  [[nodiscard]] bool active() const { return action != AnomalyAction::kNone; }
};

/// Knobs of the recovery loop.
struct RecoveryPolicy {
  /// Where checkpoints live. Required (the ctor writes the initial one).
  std::string checkpoint_path;
  /// Save after every N successful iterations (1 = every iteration).
  int checkpoint_every = 1;
  /// Give up (rethrow) after this many failed attempts of one iteration.
  int max_retries_per_iteration = 3;
  /// Failed attempts of one iteration before elastic downgrade kicks in.
  int retries_before_downgrade = 2;
  /// Permit restarting on a smaller pipeline width after repeated failures.
  bool allow_elastic_downgrade = false;
  /// Run the stall watchdog inside every iteration (rebuilds inherit it).
  bool enable_watchdog = false;
  WatchdogConfig watchdog;
  /// Loss / grad-norm anomaly detection; requires checkpoint_every == 1
  /// when active.
  AnomalyPolicy anomaly;
};

/// What the recovery loop observed; one human-readable line per event.
struct RecoveryStats {
  int faults_observed = 0;   ///< failed train_iteration attempts
  int recoveries = 0;        ///< successful checkpoint reload + rebuild
  int downgrades = 0;        ///< elastic restarts onto a smaller width
  int anomalies = 0;         ///< iterations flagged by the anomaly detector
  int skipped_batches = 0;   ///< anomalous updates discarded (kSkipBatch)
  int rollbacks = 0;         ///< anomalous iterations replayed (kRollback)
  std::vector<std::string> events;
};

class ResilientTrainer {
 public:
  /// Builds the initial PipelineTrainer and saves the iteration-0 checkpoint
  /// (so the very first iteration already has a good state to fall back to).
  ResilientTrainer(GptWeights weights, int p, OutputAlgo algo, PipelineFlavor flavor,
                   RecoveryPolicy policy);
  ~ResilientTrainer();

  ResilientTrainer(const ResilientTrainer&) = delete;
  ResilientTrainer& operator=(const ResilientTrainer&) = delete;

  /// One training iteration with recovery: on failure, reload the last good
  /// checkpoint, rebuild, retry (possibly on a smaller width). Throws the
  /// last failure once max_retries_per_iteration attempts are exhausted.
  float train_iteration(const std::vector<Sample>& microbatches, const OptimizerConfig& opt);

  float train_iteration(const std::vector<Sample>& microbatches, float lr) {
    return train_iteration(microbatches, OptimizerConfig::sgd(lr));
  }

  /// Deterministic fault plan, consulted by every (re)built trainer. The
  /// wrapper drives begin_iteration with the global iteration index.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  [[nodiscard]] GptWeights export_weights() const;
  /// Current pipeline width (smaller than the initial p after a downgrade).
  [[nodiscard]] int pipeline_width() const { return width_; }
  [[nodiscard]] std::uint64_t iterations_completed() const { return iteration_; }
  [[nodiscard]] const RecoveryStats& stats() const { return stats_; }
  [[nodiscard]] PipelineTrainer& trainer() { return *trainer_; }

  /// The next admissible smaller width for `flavor` below `width` (halving),
  /// or 0 if none exists. Exposed for tests.
  [[nodiscard]] static int next_smaller_width(int width, int num_layers, PipelineFlavor flavor);

  /// The anomaly windows + counters as one human-readable block (appended to
  /// watchdog stall snapshots; exposed for tests).
  [[nodiscard]] std::string anomaly_snapshot() const;

 private:
  void rebuild(GptWeights weights, int width);
  /// Classify this iteration's (loss, grad norm); returns a non-empty
  /// description when it is anomalous.
  [[nodiscard]] std::string classify_anomaly(float loss, float grad_norm);

  OutputAlgo algo_;
  PipelineFlavor flavor_;  ///< after VOCAB_SCHEDULE: the flavor that runs
  RecoveryPolicy policy_;
  int width_;
  std::uint64_t iteration_ = 0;
  std::unique_ptr<PipelineTrainer> trainer_;
  std::shared_ptr<FaultInjector> injector_;
  RecoveryStats stats_;
  guard::AnomalyDetector loss_detector_;
  guard::AnomalyDetector grad_detector_;
};

}  // namespace vocab
