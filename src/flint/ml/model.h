// Model abstraction: a trainable function from a Batch to logits with flat
// parameter access, which is the currency of federated aggregation (clients
// exchange flat update vectors with the server).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "flint/ml/batch.h"
#include "flint/ml/layers.h"

namespace flint::ml {

/// Abstract trainable model.
class Model {
 public:
  virtual ~Model() = default;

  /// Logits [n, heads] for a batch; caches state for backward(). The result
  /// is the model's own workspace: it stays valid and unchanged until the
  /// next forward(). Copy it to keep it longer.
  virtual const Tensor& forward(const Batch& batch) = 0;

  /// Accumulate parameter gradients for the last forward().
  virtual void backward(const Tensor& d_logits) = 0;

  /// All trainable parameters, in a stable order. The list is built when the
  /// model is constructed and lives as long as the model.
  virtual const std::vector<Parameter*>& parameters() = 0;

  /// Number of output heads (1 for single-task models).
  virtual std::size_t heads() const { return 1; }

  /// Deep copy (fresh gradient state is fine; values must match).
  virtual std::unique_ptr<Model> clone() const = 0;

  /// Initialize all parameters.
  virtual void init(util::Rng& rng) = 0;

  // --- Flat parameter plumbing (implemented on top of parameters()). ---

  /// Total trainable parameter count.
  std::size_t parameter_count();

  /// Concatenation of all parameter values.
  std::vector<float> get_flat_parameters();

  /// Overwrite all parameter values from a flat vector (size must match).
  void set_flat_parameters(std::span<const float> flat);

  /// Zero all parameter gradients.
  void zero_grad();

  /// Serialized size in bytes of one gradient update (float32 payload).
  std::size_t update_bytes() { return parameter_count() * sizeof(float); }
};

/// Which front-end converts tokens to dense activations.
enum class FrontEnd {
  kNone,       ///< dense features only
  kEmbedding,  ///< EmbeddingBag over a vocabulary
  kHashing,    ///< feature hashing into buckets (no trainable table)
};

/// Configuration for FeedForwardModel.
struct FeedForwardConfig {
  std::size_t dense_dim = 0;       ///< dense feature width (0 = none)
  FrontEnd front_end = FrontEnd::kNone;
  std::size_t vocab = 0;           ///< embedding vocab (kEmbedding)
  std::size_t embed_dim = 0;       ///< embedding dimension (kEmbedding)
  std::size_t hash_buckets = 0;    ///< buckets (kHashing)
  std::vector<std::size_t> hidden; ///< hidden layer widths
  std::size_t heads = 1;           ///< output heads (>=2 = multi-task)
};

/// MLP with an optional embedding-bag or feature-hashing front end and an
/// arbitrary ReLU hidden stack. Covers the paper's Models A, B, C, and E.
class FeedForwardModel : public Model {
 public:
  explicit FeedForwardModel(FeedForwardConfig config);
  FeedForwardModel(const FeedForwardModel& other);
  FeedForwardModel& operator=(const FeedForwardModel&) = delete;

  const Tensor& forward(const Batch& batch) override;
  void backward(const Tensor& d_logits) override;
  const std::vector<Parameter*>& parameters() override { return params_; }
  std::size_t heads() const override { return config_.heads; }
  std::unique_ptr<Model> clone() const override;
  void init(util::Rng& rng) override;

  const FeedForwardConfig& config() const { return config_; }

 private:
  std::size_t trunk_input_dim() const;
  void collect_parameters();

  FeedForwardConfig config_;
  std::unique_ptr<EmbeddingBagLayer> embedding_;  ///< kEmbedding only
  std::unique_ptr<HashedBagLayer> hashing_;       ///< kHashing only
  std::vector<std::unique_ptr<Layer>> trunk_;     ///< dense + relu stack + head
  std::vector<Parameter*> params_;                ///< embedding table, then trunk
  Tensor trunk_input_;  ///< front-end output (| dense) fed to the trunk
  Tensor front_grad_;   ///< embedding slice of the trunk's input gradient
  std::size_t last_batch_size_ = 0;
  bool last_had_tokens_ = false;
};

/// Configuration for ConvTextModel (the paper's Model D).
struct ConvTextConfig {
  std::size_t vocab = 6000;
  std::size_t embed_dim = 64;
  std::size_t seq_len = 16;    ///< tokens are padded/truncated to this length
  std::size_t conv_channels = 16;
  std::size_t kernel = 3;
  std::vector<std::size_t> hidden = {32};
};

/// Token CNN: embedding table -> 1-D conv + global max pool -> MLP head.
class ConvTextModel : public Model {
 public:
  explicit ConvTextModel(ConvTextConfig config);
  ConvTextModel(const ConvTextModel& other);
  ConvTextModel& operator=(const ConvTextModel&) = delete;

  const Tensor& forward(const Batch& batch) override;
  void backward(const Tensor& d_logits) override;
  const std::vector<Parameter*>& parameters() override { return params_; }
  std::unique_ptr<Model> clone() const override;
  void init(util::Rng& rng) override;

  const ConvTextConfig& config() const { return config_; }

 private:
  void collect_parameters();

  ConvTextConfig config_;
  Parameter embedding_;  ///< [vocab, embed_dim]; positional lookup, not a bag
  std::vector<std::unique_ptr<Layer>> trunk_;
  std::vector<Parameter*> params_;  ///< embedding table, then trunk
  Tensor trunk_input_;  ///< [n, seq_len * embed_dim] positional embeddings
  std::vector<std::vector<std::int32_t>> last_padded_;
};

}  // namespace flint::ml
