#pragma once

// Dynamic loss scaling for bf16 mixed-precision training.
//
// Gradients produced under reduced-precision storage can underflow fp32's
// useful range once multiplied by small per-token factors; the standard
// remedy (Micikevicius et al., "Mixed Precision Training") multiplies the
// loss gradient by a scale S, trains on S-scaled gradients, and unscales by
// 1/S just before the optimizer step. S adapts dynamically: any nonfinite
// gradient skips the step and halves S; a long enough run of clean steps
// doubles it back.
//
// The scaler is driven once per training iteration by the trainer (never by
// device threads), so its state needs no synchronisation.

#include <cstdint>

namespace vocab {

struct LossScalerConfig {
  float init_scale = 65536.0f;  ///< 2^16, the Megatron default
  float growth_factor = 2.0f;
  float backoff_factor = 0.5f;
  int growth_interval = 2000;   ///< clean steps between growth attempts
  float min_scale = 1.0f;
};

class LossScaler {
 public:
  LossScaler() : LossScaler(LossScalerConfig{}) {}
  explicit LossScaler(LossScalerConfig cfg);

  [[nodiscard]] float scale() const { return scale_; }

  /// Record one iteration's outcome: overflow halves the scale (floored at
  /// min_scale) and resets the clean-step run; growth_interval consecutive
  /// clean steps multiply it by growth_factor.
  void update(bool overflow);

  [[nodiscard]] int good_steps() const { return good_steps_; }
  [[nodiscard]] int overflow_count() const { return overflows_; }

  /// Restore persisted state (checkpoint resume).
  void restore(float scale, int good_steps, int overflows);

 private:
  LossScalerConfig cfg_;
  float scale_;
  int good_steps_ = 0;
  int overflows_ = 0;
};

}  // namespace vocab
