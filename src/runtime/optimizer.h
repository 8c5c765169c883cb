#pragma once

// Optimizers for the trainers: plain SGD and Adam (the paper's experiments
// train GPT with Adam under Megatron's mixed-precision recipe; our cost
// model's 18 bytes/param assumes exactly the m/v/master-weight state this
// module materialises).
//
// A ParamOptimizer owns the per-parameter state lazily, so a trainer keeps
// one per tensor and calls step(param, grad) once per iteration. Vocabulary
// shards keep their state sharded — no optimizer communication is needed,
// which is part of the paper's "native to pipeline parallelism" story.

#include <cstdint>

#include "tensor/bf16.h"
#include "tensor/tensor.h"

namespace vocab {

enum class OptimizerKind { Sgd, Adam };

struct OptimizerConfig {
  OptimizerKind kind = OptimizerKind::Sgd;
  float lr = 0.1f;
  float beta1 = 0.9f;    // Adam only
  float beta2 = 0.999f;  // Adam only
  float eps = 1e-8f;     // Adam only

  /// Global gradient-norm clip threshold; <= 0 disables clipping. Applied by
  /// the trainers before any step: gradients are scaled by
  /// max_grad_norm / norm when the global norm (all parameters, all shards)
  /// exceeds the threshold. See guard/grad_clip.h for how the sharded norm
  /// stays bit-identical to the single-device one.
  float max_grad_norm = 0.0f;

  static OptimizerConfig sgd(float lr) { return {OptimizerKind::Sgd, lr}; }
  static OptimizerConfig adam(float lr) { return {OptimizerKind::Adam, lr}; }
};

/// Optimizer state for one parameter tensor.
class ParamOptimizer {
 public:
  /// Apply one update of `grad` to `param` under `cfg`. Adam state buffers
  /// are allocated on first use and sized to the parameter.
  void step(Tensor& param, const Tensor& grad, const OptimizerConfig& cfg);

  /// Seed the fp32 master from `param` (exact widening). Required once
  /// before the first step_master; the trainer seeds when mixed precision
  /// is enabled.
  void seed_master(const Bf16Tensor& param) { master_ = param.to_tensor(); }

  /// Mixed-precision step: `param` is the bf16 working copy; the fp32 master
  /// weight lives here. The update runs entirely in fp32 on the master,
  /// which is then rounded back into `param` — the Megatron master-weight
  /// recipe, so repeated tiny updates cannot be swallowed by bf16's 8-bit
  /// significand.
  void step_master(Bf16Tensor& param, const Tensor& grad, const OptimizerConfig& cfg);

  /// The fp32 master (empty until seeded).
  [[nodiscard]] const Tensor& master() const { return master_; }

  [[nodiscard]] int steps_taken() const { return t_; }

 private:
  Tensor m_;
  Tensor v_;
  Tensor master_;  // step_master only
  int t_ = 0;
};

}  // namespace vocab
