#include "flint/ml/layers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "flint/ml/kernels/kernels.h"

namespace flint::ml {

namespace {

/// x if keep, else +0.0, as a bit mask: a compare and an and, so the select
/// never becomes a branch on the data (a conditional expression on floats
/// does, at -O2 and in vector tails).
inline float keep_or_zero(bool keep, float x) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) &
                              (0u - static_cast<std::uint32_t>(keep)));
}

/// Xavier-uniform init for a [fan_in, fan_out] weight matrix.
void xavier_init(Tensor& w, std::size_t fan_in, std::size_t fan_out, util::Rng& rng) {
  float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (float& v : w.flat()) v = static_cast<float>(rng.uniform(-bound, bound));
}

}  // namespace

// ---------------------------------------------------------------- DenseLayer

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, bool input_grad)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      input_grad_(input_grad),
      weight_(in_dim, out_dim),
      bias_(1, out_dim) {
  FLINT_CHECK(in_dim > 0 && out_dim > 0);
}

const Tensor& DenseLayer::forward(const Tensor& input) {
  FLINT_CHECK_MSG(input.cols() == in_dim_,
                  "dense layer expects " << in_dim_ << " inputs, got " << input.cols());
  last_input_ = input;
  const std::size_t n = input.rows();
  out_.resize(n, out_dim_);
  out_.zero();
  const auto& k = kernels::active();
  k.matmul(input.flat().data(), weight_.value.flat().data(), out_.flat().data(), n, in_dim_,
           out_dim_);
  auto bias = bias_.value.flat();
  for (std::size_t i = 0; i < n; ++i) k.add(out_.row(i).data(), bias.data(), out_dim_);
  return out_;
}

const Tensor& DenseLayer::backward(const Tensor& d_output) {
  FLINT_CHECK(d_output.rows() == last_input_.rows() && d_output.cols() == out_dim_);
  // dW += X^T dY;  db += column sums of dY;  dX = dY W^T. dW is formed in a
  // workspace and then added, so gradients accumulate across calls.
  const std::size_t n = d_output.rows();
  const auto& k = kernels::active();
  d_weight_.resize(in_dim_, out_dim_);
  d_weight_.zero();
  k.transposed_matmul(last_input_.flat().data(), d_output.flat().data(),
                      d_weight_.flat().data(), n, in_dim_, out_dim_);
  weight_.grad += d_weight_;
  auto bias_grad = bias_.grad.flat();
  for (std::size_t i = 0; i < n; ++i) k.add(bias_grad.data(), d_output.row(i).data(), out_dim_);
  if (!input_grad_) return d_input_;
  d_input_.resize(n, in_dim_);
  k.matmul_transposed(d_output.flat().data(), weight_.value.flat().data(),
                      d_input_.flat().data(), n, out_dim_, in_dim_);
  return d_input_;
}

void DenseLayer::init(util::Rng& rng) {
  xavier_init(weight_.value, in_dim_, out_dim_, rng);
  bias_.value.zero();
}

// ----------------------------------------------------------------- ReluLayer

const Tensor& ReluLayer::forward(const Tensor& input) {
  out_.resize(input.rows(), input.cols());
  auto in = input.flat();
  auto out = out_.flat();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = keep_or_zero(!(in[i] < 0.0f), in[i]);
  return out_;
}

const Tensor& ReluLayer::backward(const Tensor& d_output) {
  FLINT_CHECK(d_output.same_shape(out_));
  d_input_.resize(d_output.rows(), d_output.cols());
  auto out = out_.flat();
  auto g = d_output.flat();
  auto din = d_input_.flat();
  for (std::size_t i = 0; i < din.size(); ++i) din[i] = keep_or_zero(!(out[i] <= 0.0f), g[i]);
  return d_input_;
}

// --------------------------------------------------------- EmbeddingBagLayer

EmbeddingBagLayer::EmbeddingBagLayer(std::size_t vocab, std::size_t dim)
    : vocab_(vocab), dim_(dim), table_(vocab, dim) {
  FLINT_CHECK(vocab > 0 && dim > 0);
}

Tensor EmbeddingBagLayer::forward(const std::vector<std::vector<std::int32_t>>& tokens) {
  last_tokens_ = tokens;
  Tensor out(tokens.size(), dim_);
  const auto& k = kernels::active();
  auto table = table_.value.flat();
  for (std::size_t i = 0; i < tokens.size(); ++i)
    k.gather_mean_rows(table.data(), dim_, tokens[i].data(), tokens[i].size(), vocab_,
                       out.row(i).data());
  return out;
}

void EmbeddingBagLayer::backward(const Tensor& d_output) {
  FLINT_CHECK(d_output.rows() == last_tokens_.size() && d_output.cols() == dim_);
  const auto& k = kernels::active();
  auto grad_table = table_.grad.flat();
  for (std::size_t i = 0; i < last_tokens_.size(); ++i) {
    if (last_tokens_[i].empty()) continue;
    float inv = 1.0f / static_cast<float>(last_tokens_[i].size());
    k.scatter_add_rows(grad_table.data(), dim_, last_tokens_[i].data(),
                       last_tokens_[i].size(), vocab_, d_output.row(i).data(), inv);
  }
}

void EmbeddingBagLayer::init(util::Rng& rng) {
  // Small-scale normal init, standard for embedding tables.
  for (float& v : table_.value.flat()) v = static_cast<float>(rng.normal(0.0, 0.05));
}

// ------------------------------------------------------------- HashedBagLayer

HashedBagLayer::HashedBagLayer(std::size_t buckets, std::uint64_t salt)
    : buckets_(buckets), salt_(salt) {
  FLINT_CHECK(buckets > 0);
}

std::size_t HashedBagLayer::bucket_of(std::int32_t token) const {
  return static_cast<std::size_t>(
      util::splitmix64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(token)) ^ salt_) %
      buckets_);
}

Tensor HashedBagLayer::forward(const std::vector<std::vector<std::int32_t>>& tokens) const {
  Tensor out(tokens.size(), buckets_);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].empty()) continue;
    auto o = out.row(i);
    float norm = 1.0f / std::sqrt(static_cast<float>(tokens[i].size()));
    for (std::int32_t t : tokens[i]) o[bucket_of(t)] += norm;
  }
  return out;
}

// ------------------------------------------------------- Conv1dMaxPoolLayer

Conv1dMaxPoolLayer::Conv1dMaxPoolLayer(std::size_t seq_len, std::size_t in_ch,
                                       std::size_t out_ch, std::size_t kernel)
    : seq_len_(seq_len),
      in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(kernel),
      kernel_w_(kernel * in_ch, out_ch),
      kernel_b_(1, out_ch) {
  FLINT_CHECK(kernel > 0 && kernel <= seq_len);
}

const Tensor& Conv1dMaxPoolLayer::forward(const Tensor& input) {
  FLINT_CHECK_MSG(input.cols() == seq_len_ * in_ch_,
                  "conv1d expects " << seq_len_ * in_ch_ << " inputs, got " << input.cols());
  last_input_ = input;
  std::size_t n = input.rows();
  std::size_t positions = seq_len_ - kernel_ + 1;
  out_.resize(n, out_ch_);
  last_argmax_.assign(n * out_ch_, 0);
  for (std::size_t s = 0; s < n; ++s) {
    auto in = input.row(s);
    auto o = out_.row(s);
    for (std::size_t c = 0; c < out_ch_; ++c)
      o[c] = -std::numeric_limits<float>::infinity();
    for (std::size_t p = 0; p < positions; ++p) {
      const float* window = in.data() + p * in_ch_;
      for (std::size_t c = 0; c < out_ch_; ++c) {
        double acc = kernel_b_.value[c];
        for (std::size_t k = 0; k < kernel_ * in_ch_; ++k)
          acc += static_cast<double>(window[k]) * kernel_w_.value.at(k, c);
        auto v = static_cast<float>(acc);
        if (v > o[c]) {
          o[c] = v;
          last_argmax_[s * out_ch_ + c] = p;
        }
      }
    }
  }
  return out_;
}

const Tensor& Conv1dMaxPoolLayer::backward(const Tensor& d_output) {
  FLINT_CHECK(d_output.rows() == last_input_.rows() && d_output.cols() == out_ch_);
  d_input_.resize(last_input_.rows(), last_input_.cols());
  d_input_.zero();
  for (std::size_t s = 0; s < last_input_.rows(); ++s) {
    auto in = last_input_.row(s);
    auto g = d_output.row(s);
    auto gi = d_input_.row(s);
    for (std::size_t c = 0; c < out_ch_; ++c) {
      float go = g[c];
      if (go == 0.0f) continue;
      std::size_t p = last_argmax_[s * out_ch_ + c];
      const float* window = in.data() + p * in_ch_;
      float* gwindow = gi.data() + p * in_ch_;
      for (std::size_t k = 0; k < kernel_ * in_ch_; ++k) {
        kernel_w_.grad.at(k, c) += go * window[k];
        gwindow[k] += go * kernel_w_.value.at(k, c);
      }
      kernel_b_.grad[c] += go;
    }
  }
  return d_input_;
}

void Conv1dMaxPoolLayer::init(util::Rng& rng) {
  xavier_init(kernel_w_.value, kernel_ * in_ch_, out_ch_, rng);
  kernel_b_.value.zero();
}

}  // namespace flint::ml
