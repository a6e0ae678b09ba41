#include "flint/ml/model.h"

#include <algorithm>

namespace flint::ml {

// -------------------------------------------------------------------- Model

std::size_t Model::parameter_count() {
  std::size_t n = 0;
  for (Parameter* p : parameters()) n += p->size();
  return n;
}

std::vector<float> Model::get_flat_parameters() {
  std::vector<float> out;
  out.reserve(parameter_count());
  for (Parameter* p : parameters()) {
    auto f = p->value.flat();
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

void Model::set_flat_parameters(std::span<const float> flat) {
  std::size_t offset = 0;
  for (Parameter* p : parameters()) {
    FLINT_CHECK_MSG(offset + p->size() <= flat.size(), "flat parameter vector too short");
    auto f = p->value.flat();
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + p->size()), f.begin());
    offset += p->size();
  }
  FLINT_CHECK_MSG(offset == flat.size(), "flat parameter vector has " << flat.size()
                                                                      << " values, model needs "
                                                                      << offset);
}

void Model::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

// --------------------------------------------------------- FeedForwardModel

FeedForwardModel::FeedForwardModel(FeedForwardConfig config) : config_(std::move(config)) {
  FLINT_CHECK(config_.heads >= 1);
  switch (config_.front_end) {
    case FrontEnd::kNone:
      FLINT_CHECK_MSG(config_.dense_dim > 0, "model with no front end needs dense features");
      break;
    case FrontEnd::kEmbedding:
      FLINT_CHECK(config_.vocab > 0 && config_.embed_dim > 0);
      embedding_ = std::make_unique<EmbeddingBagLayer>(config_.vocab, config_.embed_dim);
      break;
    case FrontEnd::kHashing:
      FLINT_CHECK(config_.hash_buckets > 0);
      hashing_ = std::make_unique<HashedBagLayer>(config_.hash_buckets);
      break;
  }
  // Only an embedding table trains on the trunk's input gradient; without
  // one, the first layer's dX = dY W^T would be computed and thrown away.
  const bool input_grad = config_.front_end == FrontEnd::kEmbedding;
  std::size_t dim = trunk_input_dim();
  for (std::size_t width : config_.hidden) {
    trunk_.push_back(std::make_unique<DenseLayer>(dim, width, input_grad || !trunk_.empty()));
    trunk_.push_back(std::make_unique<ReluLayer>());
    dim = width;
  }
  trunk_.push_back(
      std::make_unique<DenseLayer>(dim, config_.heads, input_grad || !trunk_.empty()));
  collect_parameters();
}

FeedForwardModel::FeedForwardModel(const FeedForwardModel& other) : config_(other.config_) {
  if (other.embedding_) embedding_ = std::make_unique<EmbeddingBagLayer>(*other.embedding_);
  if (other.hashing_) hashing_ = std::make_unique<HashedBagLayer>(*other.hashing_);
  trunk_.reserve(other.trunk_.size());
  for (const auto& layer : other.trunk_) trunk_.push_back(layer->clone());
  collect_parameters();
}

void FeedForwardModel::collect_parameters() {
  params_.clear();
  if (embedding_)
    for (Parameter* p : embedding_->parameters()) params_.push_back(p);
  for (auto& layer : trunk_)
    for (Parameter* p : layer->parameters()) params_.push_back(p);
}

std::size_t FeedForwardModel::trunk_input_dim() const {
  std::size_t dim = config_.dense_dim;
  if (config_.front_end == FrontEnd::kEmbedding) dim += config_.embed_dim;
  if (config_.front_end == FrontEnd::kHashing) dim += config_.hash_buckets;
  FLINT_CHECK(dim > 0);
  return dim;
}

const Tensor& FeedForwardModel::forward(const Batch& batch) {
  std::size_t n = batch.size();
  last_batch_size_ = n;
  const Tensor* activ = &batch.dense;
  last_had_tokens_ = config_.front_end != FrontEnd::kNone;
  if (last_had_tokens_) {
    Tensor front = (config_.front_end == FrontEnd::kEmbedding)
                       ? embedding_->forward(batch.tokens)
                       : hashing_->forward(batch.tokens);
    if (config_.dense_dim == 0) {
      trunk_input_ = std::move(front);
    } else {
      // Concatenate [front | dense].
      trunk_input_.resize(n, front.cols() + config_.dense_dim);
      for (std::size_t i = 0; i < n; ++i) {
        auto o = trunk_input_.row(i);
        auto f = front.row(i);
        auto d = batch.dense.row(i);
        std::copy(f.begin(), f.end(), o.begin());
        std::copy(d.begin(), d.end(), o.begin() + static_cast<std::ptrdiff_t>(front.cols()));
      }
    }
    activ = &trunk_input_;
  }
  for (auto& layer : trunk_) activ = &layer->forward(*activ);
  return *activ;
}

void FeedForwardModel::backward(const Tensor& d_logits) {
  const Tensor* grad = &d_logits;
  for (auto it = trunk_.rbegin(); it != trunk_.rend(); ++it) grad = &(*it)->backward(*grad);
  if (config_.front_end == FrontEnd::kEmbedding && last_had_tokens_) {
    if (config_.dense_dim == 0) {
      embedding_->backward(*grad);
    } else {
      // Slice off the embedding part of the concatenated gradient.
      front_grad_.resize(last_batch_size_, config_.embed_dim);
      for (std::size_t i = 0; i < last_batch_size_; ++i) {
        auto g = grad->row(i);
        auto fg = front_grad_.row(i);
        std::copy(g.begin(), g.begin() + static_cast<std::ptrdiff_t>(config_.embed_dim),
                  fg.begin());
      }
      embedding_->backward(front_grad_);
    }
  }
  // Hashing front end has no trainable parameters; gradient stops there.
}

std::unique_ptr<Model> FeedForwardModel::clone() const {
  return std::make_unique<FeedForwardModel>(*this);
}

void FeedForwardModel::init(util::Rng& rng) {
  if (embedding_) embedding_->init(rng);
  for (auto& layer : trunk_) layer->init(rng);
}

// ------------------------------------------------------------ ConvTextModel

ConvTextModel::ConvTextModel(ConvTextConfig config)
    : config_(std::move(config)), embedding_(config_.vocab, config_.embed_dim) {
  FLINT_CHECK(config_.vocab > 0 && config_.embed_dim > 0 && config_.seq_len > 0);
  trunk_.push_back(std::make_unique<Conv1dMaxPoolLayer>(config_.seq_len, config_.embed_dim,
                                                        config_.conv_channels, config_.kernel));
  std::size_t dim = config_.conv_channels;
  for (std::size_t width : config_.hidden) {
    trunk_.push_back(std::make_unique<DenseLayer>(dim, width));
    trunk_.push_back(std::make_unique<ReluLayer>());
    dim = width;
  }
  trunk_.push_back(std::make_unique<DenseLayer>(dim, 1));
  collect_parameters();
}

ConvTextModel::ConvTextModel(const ConvTextModel& other)
    : config_(other.config_), embedding_(other.embedding_) {
  trunk_.reserve(other.trunk_.size());
  for (const auto& layer : other.trunk_) trunk_.push_back(layer->clone());
  collect_parameters();
}

void ConvTextModel::collect_parameters() {
  params_ = {&embedding_};
  for (auto& layer : trunk_)
    for (Parameter* p : layer->parameters()) params_.push_back(p);
}

const Tensor& ConvTextModel::forward(const Batch& batch) {
  std::size_t n = batch.size();
  // Pad/truncate token lists to seq_len; id 0 doubles as padding/OOV.
  last_padded_.resize(n);
  trunk_input_.resize(n, config_.seq_len * config_.embed_dim);
  for (std::size_t i = 0; i < n; ++i) {
    auto& padded = last_padded_[i];
    padded.assign(config_.seq_len, 0);
    for (std::size_t j = 0; j < std::min(batch.tokens[i].size(), config_.seq_len); ++j) {
      padded[j] = std::clamp<std::int32_t>(batch.tokens[i][j], 0,
                                           static_cast<std::int32_t>(config_.vocab) - 1);
    }
    auto o = trunk_input_.row(i);
    for (std::size_t p = 0; p < config_.seq_len; ++p) {
      auto e = embedding_.value.row(static_cast<std::size_t>(padded[p]));
      std::copy(e.begin(), e.end(), o.begin() + static_cast<std::ptrdiff_t>(p * config_.embed_dim));
    }
  }
  const Tensor* activ = &trunk_input_;
  for (auto& layer : trunk_) activ = &layer->forward(*activ);
  return *activ;
}

void ConvTextModel::backward(const Tensor& d_logits) {
  const Tensor* grad = &d_logits;
  for (auto it = trunk_.rbegin(); it != trunk_.rend(); ++it) grad = &(*it)->backward(*grad);
  FLINT_CHECK(grad->rows() == last_padded_.size() &&
              grad->cols() == config_.seq_len * config_.embed_dim);
  for (std::size_t i = 0; i < last_padded_.size(); ++i) {
    auto g = grad->row(i);
    for (std::size_t p = 0; p < config_.seq_len; ++p) {
      auto gr = embedding_.grad.row(static_cast<std::size_t>(last_padded_[i][p]));
      for (std::size_t j = 0; j < config_.embed_dim; ++j)
        gr[j] += g[p * config_.embed_dim + j];
    }
  }
}

std::unique_ptr<Model> ConvTextModel::clone() const {
  return std::make_unique<ConvTextModel>(*this);
}

void ConvTextModel::init(util::Rng& rng) {
  for (float& v : embedding_.value.flat()) v = static_cast<float>(rng.normal(0.0, 0.05));
  for (auto& layer : trunk_) layer->init(rng);
}

}  // namespace flint::ml
