#include "runtime/optimizer.h"

#include <cmath>

#include "common/error.h"
#include "tensor/tensor_ops.h"

namespace vocab {

void ParamOptimizer::step(Tensor& param, const Tensor& grad, const OptimizerConfig& cfg) {
  VOCAB_CHECK(param.same_shape(grad), "optimizer param/grad shape mismatch: "
                                          << param.shape_str() << " vs " << grad.shape_str());
  ++t_;
  if (cfg.kind == OptimizerKind::Sgd) {
    axpy_inplace(param, -cfg.lr, grad);
    return;
  }
  if (m_.empty()) {
    m_ = Tensor(param.shape());
    v_ = Tensor(param.shape());
  }
  // Adam with bias correction (Kingma & Ba).
  const float b1 = cfg.beta1, b2 = cfg.beta2;
  const float corr1 = 1.0f - std::pow(b1, static_cast<float>(t_));
  const float corr2 = 1.0f - std::pow(b2, static_cast<float>(t_));
  float* pp = param.data();
  float* pm = m_.data();
  float* pv = v_.data();
  const float* pg = grad.data();
  for (std::int64_t i = 0; i < param.numel(); ++i) {
    pm[i] = b1 * pm[i] + (1.0f - b1) * pg[i];
    pv[i] = b2 * pv[i] + (1.0f - b2) * pg[i] * pg[i];
    const float mhat = pm[i] / corr1;
    const float vhat = pv[i] / corr2;
    pp[i] -= cfg.lr * mhat / (std::sqrt(vhat) + cfg.eps);
  }
}

void ParamOptimizer::step_master(Bf16Tensor& param, const Tensor& grad,
                                 const OptimizerConfig& cfg) {
  VOCAB_CHECK(!master_.empty(), "step_master before seed_master");
  VOCAB_CHECK(master_.same_shape(grad), "optimizer master/grad shape mismatch: "
                                            << master_.shape_str() << " vs "
                                            << grad.shape_str());
  step(master_, grad, cfg);
  param.assign_from(master_);
}

}  // namespace vocab
