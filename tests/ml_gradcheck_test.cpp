// End-to-end numeric gradient checks: full models (front end + trunk + loss)
// against central finite differences. Catches wiring bugs that per-layer
// checks can miss (gradient slicing at the embedding/dense concatenation,
// multi-head loss fan-out, token padding in the CNN).
#include <gtest/gtest.h>

#include "flint/ml/loss.h"
#include "flint/ml/model.h"
#include "flint/util/rng.h"
#include "test_helpers.h"

namespace flint::ml {
namespace {

Batch mixed_batch(std::size_t n, std::size_t dense_dim, std::size_t vocab, util::Rng& rng) {
  std::vector<Example> examples(n);
  for (auto& e : examples) {
    e.dense.resize(dense_dim);
    for (float& v : e.dense) v = static_cast<float>(rng.normal());
    e.tokens.resize(4);
    for (auto& t : e.tokens)
      t = static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(vocab) - 1));
    e.label = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    e.label2 = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  }
  return Batch::from_examples(examples, dense_dim);
}

double loss_of(Model& model, const Batch& batch) {
  Tensor logits = model.forward(batch);
  if (model.heads() == 1) return bce_with_logits(logits, batch.labels).loss;
  return multitask_bce(logits, {batch.labels, batch.labels2}).loss;
}

/// Compare analytic dL/dtheta against central differences on a sample of
/// coordinates (stride keeps runtime bounded for big models).
void check_model_gradients(Model& model, const Batch& batch, double tol = 3e-3) {
  Tensor logits = model.forward(batch);
  LossResult loss = model.heads() == 1
                        ? bce_with_logits(logits, batch.labels)
                        : multitask_bce(logits, {batch.labels, batch.labels2});
  model.zero_grad();
  model.backward(loss.d_logits);
  std::vector<float> analytic = test::flat_gradients(model);
  std::vector<float> params = model.get_flat_parameters();

  const float eps = 1e-3f;
  std::size_t stride = std::max<std::size_t>(1, params.size() / 40);
  for (std::size_t i = 0; i < params.size(); i += stride) {
    float saved = params[i];
    params[i] = saved + eps;
    model.set_flat_parameters(params);
    double up = loss_of(model, batch);
    params[i] = saved - eps;
    model.set_flat_parameters(params);
    double down = loss_of(model, batch);
    params[i] = saved;
    double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol) << "parameter index " << i;
  }
  model.set_flat_parameters(params);
}

TEST(ModelGradCheck, DenseOnlyMlp) {
  util::Rng rng(1);
  FeedForwardConfig cfg;
  cfg.dense_dim = 6;
  cfg.hidden = {8, 4};
  FeedForwardModel model(cfg);
  model.init(rng);
  check_model_gradients(model, mixed_batch(8, 6, 10, rng));
}

TEST(ModelGradCheck, EmbeddingPlusDenseConcatenation) {
  // Exercises the gradient slicing at the [embedding | dense] boundary.
  util::Rng rng(2);
  FeedForwardConfig cfg;
  cfg.front_end = FrontEnd::kEmbedding;
  cfg.vocab = 12;
  cfg.embed_dim = 5;
  cfg.dense_dim = 3;
  cfg.hidden = {6};
  FeedForwardModel model(cfg);
  model.init(rng);
  check_model_gradients(model, mixed_batch(6, 3, 12, rng));
}

TEST(ModelGradCheck, EmbeddingOnly) {
  util::Rng rng(3);
  FeedForwardConfig cfg;
  cfg.front_end = FrontEnd::kEmbedding;
  cfg.vocab = 15;
  cfg.embed_dim = 4;
  cfg.hidden = {5};
  FeedForwardModel model(cfg);
  model.init(rng);
  // float32 mean-pooled lookups lose a little precision against double
  // central differences; allow a slightly wider band.
  check_model_gradients(model, mixed_batch(6, 0, 15, rng), /*tol=*/8e-3);
}

TEST(ModelGradCheck, MultiTaskHeads) {
  util::Rng rng(4);
  FeedForwardConfig cfg;
  cfg.dense_dim = 5;
  cfg.hidden = {6};
  cfg.heads = 2;
  FeedForwardModel model(cfg);
  model.init(rng);
  check_model_gradients(model, mixed_batch(6, 5, 10, rng));
}

TEST(ModelGradCheck, HashingFrontEnd) {
  util::Rng rng(5);
  FeedForwardConfig cfg;
  cfg.front_end = FrontEnd::kHashing;
  cfg.hash_buckets = 16;
  cfg.hidden = {6};
  FeedForwardModel model(cfg);
  model.init(rng);
  check_model_gradients(model, mixed_batch(6, 0, 40, rng));
}

TEST(ModelGradCheck, ConvTextModel) {
  // Max-pool argmax ties can flip under perturbation; a slightly looser
  // tolerance absorbs the rare kink.
  util::Rng rng(6);
  ConvTextConfig cfg;
  cfg.vocab = 20;
  cfg.embed_dim = 4;
  cfg.seq_len = 6;
  cfg.conv_channels = 3;
  cfg.kernel = 2;
  cfg.hidden = {4};
  ConvTextModel model(cfg);
  model.init(rng);
  check_model_gradients(model, mixed_batch(5, 0, 20, rng), /*tol=*/1e-2);
}

}  // namespace
}  // namespace flint::ml
