// Neural network layers. Each layer owns its parameters (value + gradient),
// caches whatever it needs from forward() to run backward(), and owns the
// workspace tensors its forward() and backward() results live in.
//
// Layers operate on rank-2 activations [batch, features]. Front-end layers
// that consume ragged token ids (EmbeddingBag, HashedBag) expose a separate
// token-based forward and are composed explicitly by models.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "flint/ml/tensor.h"
#include "flint/util/rng.h"

namespace flint::ml {

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(std::size_t rows, std::size_t cols) : value(rows, cols), grad(rows, cols) {}
  std::size_t size() const { return value.size(); }
};

/// Base class for dense-activation layers.
///
/// forward() and backward() return references to workspace tensors the
/// layer owns, so a training step allocates nothing once the workspaces have
/// grown to the batch size. The reference forward() returns stays valid and
/// unchanged until the layer's next forward(); the one backward() returns
/// until its next backward(). Copy a result to keep it longer. Neither
/// method keeps a reference to its argument: what backward() needs from the
/// input, forward() copies.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute output activations; must cache state needed by backward().
  virtual const Tensor& forward(const Tensor& input) = 0;

  /// Propagate gradients. `d_output` matches the last forward's output shape;
  /// returns gradient w.r.t. that forward's input. Accumulates into parameter
  /// gradients (callers zero_grad() between steps).
  virtual const Tensor& backward(const Tensor& d_output) = 0;

  /// Mutable views of this layer's parameters (empty for activations).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Initialize parameters (Xavier-uniform for weight matrices).
  virtual void init(util::Rng& rng) { (void)rng; }

  virtual std::unique_ptr<Layer> clone() const = 0;
};

/// Fully connected layer: out = in x W + b. W: [in, out], b: [1, out].
class DenseLayer : public Layer {
 public:
  /// With `input_grad` false, backward() skips dX = dY W^T and returns an
  /// empty tensor: for a first layer whose input nothing trains.
  DenseLayer(std::size_t in_dim, std::size_t out_dim, bool input_grad = true);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& d_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  void init(util::Rng& rng) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<DenseLayer>(*this); }

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  bool input_grad_;
  Parameter weight_;
  Parameter bias_;
  Tensor last_input_;
  Tensor out_;          ///< forward() result
  Tensor d_weight_;     ///< X^T dY, before it is added into weight_.grad
  Tensor d_input_;      ///< backward() result
};

/// Rectified linear activation, branch-free: out = in < 0 ? +0 : in. The
/// backward mask reads the layer's own output, not a saved input: out <= 0
/// exactly when in <= 0, for -0.0 and NaN too.
class ReluLayer : public Layer {
 public:
  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& d_output) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<ReluLayer>(*this); }

 private:
  Tensor out_;      ///< forward() result
  Tensor d_input_;  ///< backward() result
};

/// Mean-pooled embedding lookup over ragged token ids ("embedding bag").
/// Token ids outside [0, vocab) are clamped into range — mirrors production
/// vocab files where unknown tokens map to an OOV bucket (id 0).
class EmbeddingBagLayer {
 public:
  EmbeddingBagLayer(std::size_t vocab, std::size_t dim);

  /// [n, dim] mean of each sample's token embeddings (zeros for empty lists).
  Tensor forward(const std::vector<std::vector<std::int32_t>>& tokens);

  /// Accumulate gradients for the last forward's lookups.
  void backward(const Tensor& d_output);

  std::vector<Parameter*> parameters() { return {&table_}; }
  void init(util::Rng& rng);

  std::size_t vocab() const { return vocab_; }
  std::size_t dim() const { return dim_; }

 private:
  std::size_t vocab_;
  std::size_t dim_;
  Parameter table_;
  std::vector<std::vector<std::int32_t>> last_tokens_;
};

/// Feature-hashing front end: token ids are hashed into `buckets` and the
/// sample is represented as a normalized multi-hot vector, densified on the
/// fly. This is the Weinberger et al. (2009) trick the paper proposes for
/// replacing large vocab files on device (Section 4.1); collisions trade
/// predictive power for storage.
class HashedBagLayer {
 public:
  HashedBagLayer(std::size_t buckets, std::uint64_t salt = 0x5bd1e995);

  /// [n, buckets] sparse multi-hot (1/sqrt(count) normalized) densified.
  Tensor forward(const std::vector<std::vector<std::int32_t>>& tokens) const;

  std::size_t buckets() const { return buckets_; }

  /// The bucket a token id maps to (exposed for tests and the feature module).
  std::size_t bucket_of(std::int32_t token) const;

 private:
  std::size_t buckets_;
  std::uint64_t salt_;
};

/// 1-D convolution over a token-embedding sequence, followed by global max
/// pooling: input [n, seq*in_ch] (seq positions, channel-major per position),
/// output [n, out_ch]. Used by the paper's Model D ("CNN w/ large embedding").
class Conv1dMaxPoolLayer : public Layer {
 public:
  Conv1dMaxPoolLayer(std::size_t seq_len, std::size_t in_ch, std::size_t out_ch,
                     std::size_t kernel);

  const Tensor& forward(const Tensor& input) override;
  const Tensor& backward(const Tensor& d_output) override;
  std::vector<Parameter*> parameters() override { return {&kernel_w_, &kernel_b_}; }
  void init(util::Rng& rng) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv1dMaxPoolLayer>(*this);
  }

  std::size_t out_ch() const { return out_ch_; }

 private:
  std::size_t seq_len_;
  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t kernel_;
  Parameter kernel_w_;  ///< [kernel*in_ch, out_ch]
  Parameter kernel_b_;  ///< [1, out_ch]
  Tensor last_input_;
  /// argmax position per (sample, out channel) from the last forward.
  std::vector<std::size_t> last_argmax_;
  Tensor out_;      ///< forward() result
  Tensor d_input_;  ///< backward() result
};

}  // namespace flint::ml
