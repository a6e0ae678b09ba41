#include "flint/ml/optimizer.h"

#include <cmath>

#include "flint/ml/kernels/kernels.h"

namespace flint::ml {

SgdOptimizer::SgdOptimizer(double momentum, double weight_decay)
    : momentum_(momentum), weight_decay_(weight_decay) {
  FLINT_CHECK_FINITE(momentum);
  FLINT_CHECK_GE(momentum, 0.0);
  FLINT_CHECK_LT(momentum, 1.0);
  FLINT_CHECK_FINITE(weight_decay);
  FLINT_CHECK_GE(weight_decay, 0.0);
}

void SgdOptimizer::step(const std::vector<Parameter*>& params, double lr) {
  FLINT_CHECK_FINITE(lr);
  FLINT_CHECK_GE(lr, 0.0);
  if (momentum_ > 0.0 && velocity_.size() != params.size()) {
    velocity_.clear();
    velocity_.reserve(params.size());
    for (Parameter* p : params) velocity_.emplace_back(p->value.rows(), p->value.cols());
  }
  const auto& k = kernels::active();
  for (std::size_t i = 0; i < params.size(); ++i) {
    Parameter& p = *params[i];
    auto value = p.value.flat();
    auto grad = p.grad.flat();
    if (momentum_ > 0.0) {
      FLINT_CHECK_MSG(velocity_[i].same_shape(p.value),
                      "optimizer reused across models with different shapes");
      auto vel = velocity_[i].flat();
      k.sgd_momentum_step(value.data(), grad.data(), vel.data(), static_cast<float>(lr),
                          static_cast<float>(momentum_), static_cast<float>(weight_decay_),
                          value.size());
    } else {
      k.sgd_step(value.data(), grad.data(), static_cast<float>(lr),
                 static_cast<float>(weight_decay_), value.size());
    }
  }
}

double clip_gradients(const std::vector<Parameter*>& params, double max_norm) {
  FLINT_CHECK_FINITE(max_norm);
  FLINT_CHECK_GT(max_norm, 0.0);
  const auto& k = kernels::active();
  // Chain the accumulator across parameters: on the scalar path this is one
  // continuous sweep, reproducing the pre-kernel single-loop numerics exactly.
  double sq = 0.0;
  for (Parameter* p : params) {
    auto g = p->grad.flat();
    sq = k.sum_squares(g.data(), g.size(), sq);
  }
  double norm = std::sqrt(sq);
  // A non-finite gradient norm means training has already diverged; clipping
  // would silently turn every weight into NaN on the next step.
  FLINT_CHECK_FINITE(norm);
  if (norm > max_norm) {
    auto scale = static_cast<float>(max_norm / norm);
    for (Parameter* p : params) {
      auto g = p->grad.flat();
      k.scale(g.data(), scale, g.size());
    }
  }
  return norm;
}

}  // namespace flint::ml
