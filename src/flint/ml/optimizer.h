// Optimizers for local (on-device) training steps.
#pragma once

#include <vector>

#include "flint/ml/layers.h"

namespace flint::ml {

/// SGD with optional momentum and L2 weight decay. Momentum buffers are keyed
/// by parameter position, so the optimizer must be used with a stable
/// parameter list (one optimizer per model instance).
class SgdOptimizer {
 public:
  explicit SgdOptimizer(double momentum = 0.0, double weight_decay = 0.0);

  /// Apply one update: p -= lr * (grad + wd * p), with momentum if enabled.
  void step(const std::vector<Parameter*>& params, double lr);

  double momentum() const { return momentum_; }
  double weight_decay() const { return weight_decay_; }

 private:
  double momentum_;
  double weight_decay_;
  std::vector<Tensor> velocity_;  ///< one buffer per parameter, lazily sized
};

/// Gradient clipping by global L2 norm; returns the pre-clip norm.
/// Used both as a training stabilizer and as the DP sensitivity bound.
double clip_gradients(const std::vector<Parameter*>& params, double max_norm);

}  // namespace flint::ml
