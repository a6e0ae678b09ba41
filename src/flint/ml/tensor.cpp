#include "flint/ml/tensor.h"

#include <algorithm>
#include <sstream>

#include "flint/ml/kernels/kernels.h"

namespace flint::ml {

float& Tensor::at(std::size_t r, std::size_t c) {
  FLINT_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  FLINT_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

void Tensor::zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

void Tensor::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  FLINT_CHECK_MSG(same_shape(other),
                  "shape mismatch: " << shape_string() << " += " << other.shape_string());
  kernels::active().add(data_.data(), other.data_.data(), data_.size());
  return *this;
}

Tensor Tensor::matmul(const Tensor& rhs) const {
  FLINT_CHECK_EQ(cols_, rhs.rows_);
  Tensor out(rows_, rhs.cols_);
  kernels::active().matmul(data_.data(), rhs.data_.data(), out.data_.data(), rows_, cols_,
                           rhs.cols_);
  return out;
}

std::span<const float> Tensor::row(std::size_t r) const {
  FLINT_DCHECK(r < rows_);
  return {&data_[r * cols_], cols_};
}

std::span<float> Tensor::row(std::size_t r) {
  FLINT_DCHECK(r < rows_);
  return {&data_[r * cols_], cols_};
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << "[" << rows_ << ", " << cols_ << "]";
  return os.str();
}

}  // namespace flint::ml
