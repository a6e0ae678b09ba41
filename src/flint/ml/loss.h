// Loss functions. Each returns the scalar loss and the gradient of the loss
// w.r.t. the logits, ready to feed Model::backward().
#pragma once

#include <vector>

#include "flint/ml/tensor.h"

namespace flint::ml {

/// Loss value + gradient w.r.t. logits.
struct LossResult {
  double loss = 0.0;
  Tensor d_logits;
};

/// Numerically stable sigmoid.
float stable_sigmoid(float x);

/// Binary cross-entropy with logits, mean-reduced over the batch.
/// logits: [n, 1]; labels: n values in {0, 1} (soft labels allowed).
LossResult bce_with_logits(const Tensor& logits, const std::vector<float>& labels);

/// The same loss written into a kept result, reusing its gradient tensor's
/// capacity: no allocation once `into` has held a batch this large.
void bce_with_logits(const Tensor& logits, const std::vector<float>& labels, LossResult& into);

/// Multi-task BCE: logits [n, heads]; column h is scored against labels_h.
/// `head_weights` scales each task's contribution (defaults to uniform).
LossResult multitask_bce(const Tensor& logits,
                         const std::vector<std::vector<float>>& labels_per_head,
                         const std::vector<double>& head_weights = {});

/// Pairwise logistic ranking loss (RankNet) over ONE group of candidates.
/// logits: [n, 1]; labels: graded relevance. For every pair (i, j) with
/// labels[i] > labels[j], adds log(1 + exp(-(s_i - s_j))). Mean over pairs.
/// Returns zero loss and gradient if no ordered pair exists.
LossResult pairwise_ranking_loss(const Tensor& logits, const std::vector<float>& labels);

}  // namespace flint::ml
