#include "runtime/resilient_trainer.h"

#include <exception>
#include <utility>

#include "common/error.h"
#include "runtime/checkpoint.h"

namespace vocab {

namespace {

int min_width(PipelineFlavor flavor) {
  switch (flavor) {
    case PipelineFlavor::Gpipe:
    case PipelineFlavor::OneFOneBVocab:
    case PipelineFlavor::VHalf:
    case PipelineFlavor::ZbVocab:
    case PipelineFlavor::Auto:
      return 2;  // vocabulary-parallel schedules need >= 2 devices
    case PipelineFlavor::Naive:
    case PipelineFlavor::Baseline1F1B:
      return 1;
  }
  return 1;
}

int stages_of(int width, PipelineFlavor flavor) {
  return flavor == PipelineFlavor::VHalf ? 2 * width : width;
}

}  // namespace

int ResilientTrainer::next_smaller_width(int width, int num_layers, PipelineFlavor flavor) {
  for (int w = width / 2; w >= min_width(flavor); --w) {
    if (num_layers % stages_of(w, flavor) == 0) return w;
  }
  return 0;
}

ResilientTrainer::ResilientTrainer(GptWeights weights, int p, OutputAlgo algo,
                                   PipelineFlavor flavor, RecoveryPolicy policy)
    : algo_(algo),
      flavor_(flavor_from_env(flavor)),
      policy_(std::move(policy)),
      width_(p),
      loss_detector_(policy_.anomaly.window, policy_.anomaly.min_samples,
                     policy_.anomaly.threshold),
      grad_detector_(policy_.anomaly.window, policy_.anomaly.min_samples,
                     policy_.anomaly.threshold) {
  VOCAB_CHECK(!policy_.checkpoint_path.empty(), "RecoveryPolicy needs a checkpoint_path");
  VOCAB_CHECK(policy_.checkpoint_every >= 1, "checkpoint_every must be >= 1");
  VOCAB_CHECK(policy_.max_retries_per_iteration >= 1, "need at least one retry");
  // Anomaly actions undo an already-applied optimizer step by reloading the
  // last checkpoint, so that checkpoint must be exactly one iteration old.
  VOCAB_CHECK(!policy_.anomaly.active() || policy_.checkpoint_every == 1,
              "an active AnomalyPolicy requires checkpoint_every == 1");
  // Iteration-0 baseline: even a failure in the very first iteration has a
  // good state to fall back to.
  save_checkpoint(policy_.checkpoint_path, weights);
  rebuild(std::move(weights), p);
}

ResilientTrainer::~ResilientTrainer() = default;

void ResilientTrainer::rebuild(GptWeights weights, int width) {
  trainer_ = nullptr;  // release the old (possibly poisoned) trainer first
  trainer_ = std::make_unique<PipelineTrainer>(std::move(weights), width, algo_, flavor_);
  width_ = width;
  if (injector_ != nullptr) trainer_->set_fault_injector(injector_);
  if (policy_.enable_watchdog) trainer_->enable_watchdog(policy_.watchdog);
  if (policy_.anomaly.active()) {
    if (policy_.anomaly.watch_grad_norm) trainer_->set_grad_norm_monitor(true);
    trainer_->set_extra_snapshot([this] { return anomaly_snapshot(); });
  }
}

std::string ResilientTrainer::anomaly_snapshot() const {
  std::string out = "anomaly: anomalies=" + std::to_string(stats_.anomalies) +
                    " skipped=" + std::to_string(stats_.skipped_batches) +
                    " rollbacks=" + std::to_string(stats_.rollbacks) + "\n";
  out += "  loss: " + loss_detector_.describe() + "\n";
  out += "  grad-norm: " + grad_detector_.describe() + "\n";
  return out;
}

std::string ResilientTrainer::classify_anomaly(float loss, float grad_norm) {
  std::string what;
  if (policy_.anomaly.watch_loss &&
      loss_detector_.observe(static_cast<double>(loss))) {
    what += "loss spike " + std::to_string(loss) + " (window median " +
            std::to_string(loss_detector_.median()) + ")";
  }
  if (policy_.anomaly.watch_grad_norm &&
      grad_detector_.observe(static_cast<double>(grad_norm))) {
    if (!what.empty()) what += "; ";
    what += "grad-norm spike " + std::to_string(grad_norm) + " (window median " +
            std::to_string(grad_detector_.median()) + ")";
  }
  return what;
}

void ResilientTrainer::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  injector_ = std::move(injector);
  if (trainer_ != nullptr) trainer_->set_fault_injector(injector_);
}

float ResilientTrainer::train_iteration(const std::vector<Sample>& microbatches,
                                        const OptimizerConfig& opt) {
  for (int attempt = 1;; ++attempt) {
    // Global iteration index: a rebuilt trainer must not restart the fault
    // clock, and one-shot specs must not re-fire on the retry.
    if (injector_ != nullptr) injector_->begin_iteration(iteration_);
    try {
      const float loss = trainer_->train_iteration(microbatches, opt);
      const std::string anomaly =
          policy_.anomaly.active()
              ? classify_anomaly(loss, trainer_->last_grad_norm())
              : std::string();
      if (!anomaly.empty()) {
        ++stats_.anomalies;
        stats_.events.push_back("iter " + std::to_string(iteration_) + " attempt " +
                                std::to_string(attempt) + ": " + anomaly);
        // The anomalous optimizer step is already applied; undo it by
        // reloading the last good checkpoint (one iteration old by the
        // checkpoint_every == 1 precondition).
        rebuild(load_checkpoint(policy_.checkpoint_path), width_);
        ++stats_.recoveries;
        if (policy_.anomaly.action == AnomalyAction::kSkipBatch) {
          ++stats_.skipped_batches;
          ++iteration_;  // advance past the poisoned batch, update discarded
          stats_.events.push_back("iter " + std::to_string(iteration_ - 1) +
                                  ": anomalous update discarded, batch skipped");
          return loss;
        }
        ++stats_.rollbacks;
        stats_.events.push_back("iter " + std::to_string(iteration_) +
                                ": rolled back for replay");
        if (attempt >= policy_.max_retries_per_iteration) {
          VOCAB_FAIL("anomaly persisted through " << attempt
                                                  << " attempts of iteration "
                                                  << iteration_ << ": " << anomaly);
        }
        continue;  // replay the same iteration from the restored state
      }
      ++iteration_;
      if (iteration_ % static_cast<std::uint64_t>(policy_.checkpoint_every) == 0) {
        save_checkpoint(policy_.checkpoint_path, trainer_->export_weights());
      }
      return loss;
    } catch (const std::exception& e) {
      ++stats_.faults_observed;
      stats_.events.push_back("iter " + std::to_string(iteration_) + " attempt " +
                              std::to_string(attempt) + " failed on width " +
                              std::to_string(width_) + ": " + e.what());
      if (attempt >= policy_.max_retries_per_iteration) throw;

      int width = width_;
      if (policy_.allow_elastic_downgrade && attempt >= policy_.retries_before_downgrade) {
        const int smaller =
            next_smaller_width(width_, trainer_->config().num_layers, flavor_);
        if (smaller > 0) {
          width = smaller;
          ++stats_.downgrades;
          stats_.events.push_back("iter " + std::to_string(iteration_) +
                                  ": elastic downgrade " + std::to_string(width_) + " -> " +
                                  std::to_string(width));
        }
      }
      // Reload the last good checkpoint and reshard onto `width` devices;
      // the failed attempt's partial state is discarded with the trainer.
      rebuild(load_checkpoint(policy_.checkpoint_path), width);
      ++stats_.recoveries;
      stats_.events.push_back("iter " + std::to_string(iteration_) +
                              ": recovered from checkpoint onto width " +
                              std::to_string(width));
    }
  }
}

GptWeights ResilientTrainer::export_weights() const { return trainer_->export_weights(); }

}  // namespace vocab
