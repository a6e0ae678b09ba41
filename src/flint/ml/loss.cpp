#include "flint/ml/loss.h"

#include <cmath>

namespace flint::ml {

float stable_sigmoid(float x) {
  if (x >= 0.0f) {
    float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  float z = std::exp(x);
  return z / (1.0f + z);
}

namespace {

/// log(1 + exp(x)) without overflow.
double softplus(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return 0.0;
  return std::log1p(std::exp(x));
}

}  // namespace

LossResult bce_with_logits(const Tensor& logits, const std::vector<float>& labels) {
  LossResult r;
  bce_with_logits(logits, labels, r);
  return r;
}

void bce_with_logits(const Tensor& logits, const std::vector<float>& labels, LossResult& r) {
  FLINT_CHECK_MSG(logits.cols() == 1, "bce_with_logits expects [n,1] logits");
  FLINT_CHECK(logits.rows() == labels.size());
  FLINT_CHECK(!labels.empty());
  r.d_logits.resize(logits.rows(), 1);  // every element is written below
  double total = 0.0;
  double inv_n = 1.0 / static_cast<double>(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    double x = logits[i];
    double y = labels[i];
    // loss = softplus(x) - y*x  (stable form of -y log p - (1-y) log(1-p))
    total += softplus(x) - y * x;
    r.d_logits[i] = static_cast<float>((stable_sigmoid(static_cast<float>(x)) - y) * inv_n);
  }
  r.loss = total * inv_n;
}

LossResult multitask_bce(const Tensor& logits,
                         const std::vector<std::vector<float>>& labels_per_head,
                         const std::vector<double>& head_weights) {
  std::size_t heads = logits.cols();
  FLINT_CHECK(labels_per_head.size() == heads);
  FLINT_CHECK(heads >= 1);
  std::vector<double> w = head_weights;
  if (w.empty()) w.assign(heads, 1.0 / static_cast<double>(heads));
  FLINT_CHECK(w.size() == heads);

  LossResult r;
  r.d_logits = Tensor(logits.rows(), heads);
  std::size_t n = logits.rows();
  FLINT_CHECK(n > 0);
  double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t h = 0; h < heads; ++h) {
    FLINT_CHECK(labels_per_head[h].size() == n);
    double head_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double x = logits.at(i, h);
      double y = labels_per_head[h][i];
      head_total += softplus(x) - y * x;
      r.d_logits.at(i, h) = static_cast<float>(
          w[h] * (stable_sigmoid(static_cast<float>(x)) - y) * inv_n);
    }
    r.loss += w[h] * head_total * inv_n;
  }
  return r;
}

LossResult pairwise_ranking_loss(const Tensor& logits, const std::vector<float>& labels) {
  FLINT_CHECK(logits.cols() == 1);
  FLINT_CHECK(logits.rows() == labels.size());
  LossResult r;
  r.d_logits = Tensor(logits.rows(), 1);
  std::size_t n = labels.size();
  std::size_t pairs = 0;
  double total = 0.0;
  // First pass counts ordered pairs so gradients can be mean-normalized.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (labels[i] > labels[j]) ++pairs;
  if (pairs == 0) return r;
  double inv_pairs = 1.0 / static_cast<double>(pairs);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (labels[i] <= labels[j]) continue;
      double diff = static_cast<double>(logits.at(i, 0)) - logits.at(j, 0);
      total += softplus(-diff);
      // d/ds_i log(1+exp(-(s_i-s_j))) = -sigmoid(-(s_i-s_j))
      auto g = static_cast<float>(-stable_sigmoid(static_cast<float>(-diff)) * inv_pairs);
      r.d_logits.at(i, 0) += g;
      r.d_logits.at(j, 0) -= g;
    }
  }
  r.loss = total * inv_pairs;
  return r;
}

}  // namespace flint::ml
