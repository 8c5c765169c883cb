#include "runtime/loss_scaler.h"

#include <algorithm>

#include "common/error.h"

namespace vocab {

LossScaler::LossScaler(LossScalerConfig cfg) : cfg_(cfg), scale_(cfg.init_scale) {
  VOCAB_CHECK(cfg_.init_scale >= cfg_.min_scale && cfg_.min_scale > 0.0f,
              "loss scale must start at or above its floor");
  VOCAB_CHECK(cfg_.growth_factor > 1.0f && cfg_.backoff_factor > 0.0f &&
                  cfg_.backoff_factor < 1.0f,
              "growth factor must exceed 1, backoff must sit in (0, 1)");
  VOCAB_CHECK(cfg_.growth_interval >= 1, "growth interval must be positive");
}

void LossScaler::update(bool overflow) {
  if (overflow) {
    ++overflows_;
    good_steps_ = 0;
    scale_ = std::max(cfg_.min_scale, scale_ * cfg_.backoff_factor);
    return;
  }
  if (++good_steps_ >= cfg_.growth_interval) {
    good_steps_ = 0;
    scale_ *= cfg_.growth_factor;
  }
}

void LossScaler::restore(float scale, int good_steps, int overflows) {
  VOCAB_CHECK(scale >= cfg_.min_scale, "restored loss scale below the floor");
  scale_ = scale;
  good_steps_ = good_steps;
  overflows_ = overflows;
}

}  // namespace vocab
