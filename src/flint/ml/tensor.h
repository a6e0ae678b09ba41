// Minimal dense tensor for FLINT's on-device-sized models.
//
// FLINT's models are deliberately small (the paper's Model E, the largest,
// is 922k parameters), so a plain row-major float tensor is enough and keeps
// the reproduction dependency-free. Its arithmetic goes through the
// runtime-dispatched kernel table (kernels/kernels.h, DESIGN.md §16), whose
// SIMD paths include register-blocked microkernels for the small tiles local
// SGD runs; layers reuse tensors as workspaces via resize().
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "flint/util/check.h"

namespace flint::ml {

/// Row-major dense tensor of floats, rank 1 or 2 (vectors and matrices cover
/// every layer FLINT ships). Value type: copyable and movable.
class Tensor {
 public:
  Tensor() = default;

  /// Rank-1 tensor of `n` zeros.
  explicit Tensor(std::size_t n) : rows_(n), cols_(1), data_(n, 0.0f) {}

  /// Rank-2 tensor of zeros.
  Tensor(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  /// Reset every element to zero, keeping the shape.
  void zero();

  /// Reshape to [rows, cols], reusing the existing capacity (no allocation
  /// once the tensor has held rows*cols elements). Element values after a
  /// resize are unspecified; zero() before accumulating into them.
  void resize(std::size_t rows, std::size_t cols);

  /// In-place element-wise sum. Shapes must match exactly.
  Tensor& operator+=(const Tensor& other);

  /// Matrix product (this: [m,k]) x (rhs: [k,n]) -> [m,n].
  Tensor matmul(const Tensor& rhs) const;

  /// One row as a span (rank-2 only).
  std::span<const float> row(std::size_t r) const;
  std::span<float> row(std::size_t r);

  bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string shape_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace flint::ml
