// Example and Batch: the data interchange types between FLINT's data pipeline
// and its models. Examples carry dense features, optional token/categorical
// ids (consumed by embedding or hashing front-ends), and labels.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "flint/ml/tensor.h"

namespace flint::ml {

/// One training/inference record.
struct Example {
  std::vector<float> dense;          ///< Dense feature vector.
  std::vector<std::int32_t> tokens;  ///< Categorical/token ids (may be empty).
  float label = 0.0f;                ///< Primary task label (0/1 or relevance grade).
  float label2 = 0.0f;               ///< Secondary task label (multi-task models).
  std::int32_t group = 0;            ///< Ranking group id (query/session); 0 if unused.
};

/// A mini-batch assembled from examples. Dense features are densified into a
/// [n, dense_dim] tensor; token ids stay ragged for embedding-bag lookup.
struct Batch {
  Tensor dense;                                  ///< [n, dense_dim]
  std::vector<std::vector<std::int32_t>> tokens; ///< n ragged token lists
  std::vector<float> labels;                     ///< n primary labels
  std::vector<float> labels2;                    ///< n secondary labels

  std::size_t size() const { return labels.size(); }

  /// Refill this batch from `examples`; every example's dense vector must
  /// have length dense_dim (use 0 for models with no dense features). Reuses
  /// the batch's capacity, so a kept batch that has held this many examples
  /// (with token lists this long) allocates nothing.
  void assign(std::span<const Example> examples, std::size_t dense_dim) {
    const std::size_t n = examples.size();
    dense.resize(n, dense_dim == 0 ? 1 : dense_dim);
    if (dense_dim == 0) dense.zero();
    tokens.resize(n);
    labels.resize(n);
    labels2.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Example& e = examples[i];
      if (dense_dim > 0) {
        FLINT_CHECK_MSG(e.dense.size() == dense_dim,
                        "example dense dim " << e.dense.size() << " != batch dim " << dense_dim);
        std::copy(e.dense.begin(), e.dense.end(), dense.row(i).begin());
      }
      tokens[i].assign(e.tokens.begin(), e.tokens.end());
      labels[i] = e.label;
      labels2[i] = e.label2;
    }
  }

  /// A fresh batch built by assign().
  static Batch from_examples(std::span<const Example> examples, std::size_t dense_dim) {
    Batch b;
    b.assign(examples, dense_dim);
    return b;
  }
};

}  // namespace flint::ml
