#include "flint/ml/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "flint/util/check.h"

namespace flint::ml {

namespace {

/// Indices of `scores` sorted by descending score (stable for ties).
std::vector<std::size_t> rank_desc(const std::vector<float>& scores) {
  std::vector<std::size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
  return idx;
}

}  // namespace

double average_precision(const std::vector<float>& scores, const std::vector<float>& labels) {
  FLINT_CHECK(scores.size() == labels.size());
  FLINT_CHECK(!scores.empty());
  double positives = 0.0;
  for (float y : labels) positives += y;
  if (positives == 0.0) return 0.0;

  auto order = rank_desc(scores);
  double tp = 0.0;
  double ap = 0.0;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    float y = labels[order[rank]];
    if (y > 0.5f) {
      tp += 1.0;
      double precision = tp / static_cast<double>(rank + 1);
      ap += precision;
    }
  }
  return ap / positives;
}

double ndcg_at_k(const std::vector<float>& scores, const std::vector<float>& labels,
                 std::size_t k) {
  FLINT_CHECK(scores.size() == labels.size());
  FLINT_CHECK(!scores.empty());
  FLINT_CHECK(k > 0);
  auto dcg = [&](const std::vector<std::size_t>& order) {
    double acc = 0.0;
    std::size_t limit = std::min(k, order.size());
    for (std::size_t r = 0; r < limit; ++r) {
      double gain = std::pow(2.0, static_cast<double>(labels[order[r]])) - 1.0;
      acc += gain / std::log2(static_cast<double>(r) + 2.0);
    }
    return acc;
  };
  auto pred_order = rank_desc(scores);
  std::vector<std::size_t> ideal_order(labels.size());
  std::iota(ideal_order.begin(), ideal_order.end(), 0);
  std::stable_sort(ideal_order.begin(), ideal_order.end(),
                   [&](std::size_t a, std::size_t b) { return labels[a] > labels[b]; });
  double ideal = dcg(ideal_order);
  if (ideal <= 0.0) return 1.0;
  return dcg(pred_order) / ideal;
}

}  // namespace flint::ml
