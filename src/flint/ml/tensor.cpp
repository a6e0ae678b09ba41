#include "flint/ml/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "flint/ml/kernels/kernels.h"

namespace flint::ml {

Tensor::Tensor(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  FLINT_CHECK_EQ(data_.size(), rows_ * cols_);
}

Tensor Tensor::from_vector(std::vector<float> v) {
  std::size_t n = v.size();
  return Tensor(n, 1, std::move(v));
}

float& Tensor::at(std::size_t r, std::size_t c) {
  FLINT_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  FLINT_DCHECK(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

void Tensor::zero() { std::fill(data_.begin(), data_.end(), 0.0f); }
void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

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

Tensor& Tensor::operator-=(const Tensor& other) {
  FLINT_CHECK(same_shape(other));
  kernels::active().sub(data_.data(), other.data_.data(), data_.size());
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  kernels::active().scale(data_.data(), s, data_.size());
  return *this;
}

void Tensor::add_scaled(const Tensor& other, float s) {
  FLINT_CHECK(same_shape(other));
  kernels::active().axpy(data_.data(), other.data_.data(), s, data_.size());
}

float Tensor::l2_norm() const {
  return static_cast<float>(
      std::sqrt(kernels::active().sum_squares(data_.data(), data_.size(), 0.0)));
}

Tensor Tensor::matmul(const Tensor& rhs) const {
  FLINT_CHECK_EQ(cols_, rhs.rows_);
  Tensor out(rows_, rhs.cols_);
  kernels::active().matmul(data_.data(), rhs.data_.data(), out.data_.data(), rows_, cols_,
                           rhs.cols_);
  return out;
}

Tensor Tensor::transposed_matmul(const Tensor& rhs) const {
  FLINT_CHECK_EQ(rows_, rhs.rows_);
  Tensor out(cols_, rhs.cols_);
  kernels::active().transposed_matmul(data_.data(), rhs.data_.data(), out.data_.data(),
                                      rows_, cols_, rhs.cols_);
  return out;
}

Tensor Tensor::matmul_transposed(const Tensor& rhs) const {
  FLINT_CHECK_EQ(cols_, rhs.cols_);
  Tensor out(rows_, rhs.rows_);
  kernels::active().matmul_transposed(data_.data(), rhs.data_.data(), out.data_.data(),
                                      rows_, cols_, rhs.rows_);
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

bool operator==(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) return false;
  auto fa = a.flat();
  auto fb = b.flat();
  return std::equal(fa.begin(), fa.end(), fb.begin());
}

}  // namespace flint::ml
