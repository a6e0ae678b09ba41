// Offline evaluation metrics. The paper measures ads & messaging with AUPR
// (area under the precision-recall curve) and search with NDCG.
#pragma once

#include <cstddef>
#include <vector>

namespace flint::ml {

/// Average precision (equals AUPR computed by the step-wise interpolation
/// scikit-learn uses). scores: predicted; labels: {0,1}. Returns 0 when the
/// positive class is absent.
double average_precision(const std::vector<float>& scores, const std::vector<float>& labels);

/// NDCG@k for one ranking group with graded relevance labels.
/// Returns 1.0 for a group with no positive relevance (ideal DCG of zero).
double ndcg_at_k(const std::vector<float>& scores, const std::vector<float>& labels,
                 std::size_t k);

}  // namespace flint::ml
