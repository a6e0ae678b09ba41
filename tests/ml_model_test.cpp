#include "flint/ml/model.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "flint/ml/loss.h"
#include "flint/ml/model_zoo.h"
#include "flint/util/rng.h"
#include "test_helpers.h"

namespace flint::ml {
namespace {

Batch dense_batch(std::size_t n, std::size_t dim, util::Rng& rng) {
  std::vector<Example> examples(n);
  for (auto& e : examples) {
    e.dense.resize(dim);
    for (float& v : e.dense) v = static_cast<float>(rng.normal());
    e.label = rng.bernoulli(0.5) ? 1.0f : 0.0f;
    e.label2 = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  }
  return Batch::from_examples(examples, dim);
}

Batch token_batch(std::size_t n, std::size_t vocab, util::Rng& rng) {
  std::vector<Example> examples(n);
  for (auto& e : examples) {
    e.tokens.resize(5);
    for (auto& t : e.tokens)
      t = static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(vocab) - 1));
    e.label = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  }
  return Batch::from_examples(examples, 0);
}

TEST(FeedForwardModel, FlatParameterRoundTrip) {
  util::Rng rng(1);
  FeedForwardConfig cfg;
  cfg.dense_dim = 6;
  cfg.hidden = {4};
  FeedForwardModel model(cfg);
  model.init(rng);
  auto flat = model.get_flat_parameters();
  EXPECT_EQ(flat.size(), model.parameter_count());
  // Perturb, restore, verify.
  auto perturbed = flat;
  for (float& v : perturbed) v += 1.0f;
  model.set_flat_parameters(perturbed);
  EXPECT_EQ(model.get_flat_parameters(), perturbed);
  model.set_flat_parameters(flat);
  EXPECT_EQ(model.get_flat_parameters(), flat);
}

TEST(FeedForwardModel, SetFlatRejectsWrongSize) {
  FeedForwardConfig cfg;
  cfg.dense_dim = 3;
  FeedForwardModel model(cfg);
  std::vector<float> wrong(model.parameter_count() + 1, 0.0f);
  EXPECT_THROW(model.set_flat_parameters(wrong), util::CheckError);
}

TEST(FeedForwardModel, CloneProducesIdenticalOutputs) {
  util::Rng rng(2);
  FeedForwardConfig cfg;
  cfg.dense_dim = 5;
  cfg.hidden = {8, 4};
  FeedForwardModel model(cfg);
  model.init(rng);
  auto clone = model.clone();
  Batch batch = dense_batch(6, 5, rng);
  Tensor a = model.forward(batch);
  Tensor b = clone->forward(batch);
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_TRUE(std::ranges::equal(a.flat(), b.flat()));
}

TEST(FeedForwardModel, ZeroGradClearsGradients) {
  util::Rng rng(3);
  FeedForwardConfig cfg;
  cfg.dense_dim = 4;
  cfg.hidden = {3};
  FeedForwardModel model(cfg);
  model.init(rng);
  Batch batch = dense_batch(4, 4, rng);
  Tensor logits = model.forward(batch);
  auto loss = bce_with_logits(logits, batch.labels);
  model.backward(loss.d_logits);
  bool any_nonzero = false;
  for (float g : test::flat_gradients(model))
    if (g != 0.0f) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
  model.zero_grad();
  for (float g : test::flat_gradients(model)) EXPECT_EQ(g, 0.0f);
}

TEST(FeedForwardModel, EmbeddingFrontEndWithDense) {
  util::Rng rng(4);
  FeedForwardConfig cfg;
  cfg.front_end = FrontEnd::kEmbedding;
  cfg.vocab = 20;
  cfg.embed_dim = 6;
  cfg.dense_dim = 3;
  cfg.hidden = {5};
  FeedForwardModel model(cfg);
  model.init(rng);
  std::vector<Example> examples(3);
  for (auto& e : examples) {
    e.dense = {0.1f, 0.2f, 0.3f};
    e.tokens = {1, 5, 7};
  }
  Batch batch = Batch::from_examples(examples, 3);
  Tensor out = model.forward(batch);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 1u);
  // Backward must run without throwing and touch the embedding table.
  Tensor g(3, 1);
  std::fill(g.flat().begin(), g.flat().end(), 1.0f);
  model.zero_grad();
  model.backward(g);
  float table_grad_mass = 0.0f;
  for (float v : model.parameters()[0]->grad.flat()) table_grad_mass += std::abs(v);
  EXPECT_GT(table_grad_mass, 0.0f);
}

TEST(FeedForwardModel, HashingFrontEndForward) {
  util::Rng rng(5);
  FeedForwardConfig cfg;
  cfg.front_end = FrontEnd::kHashing;
  cfg.hash_buckets = 32;
  cfg.hidden = {4};
  FeedForwardModel model(cfg);
  model.init(rng);
  Batch batch = token_batch(4, 100, rng);
  Tensor out = model.forward(batch);
  EXPECT_EQ(out.rows(), 4u);
  Tensor g(4, 1);
  std::fill(g.flat().begin(), g.flat().end(), 0.5f);
  EXPECT_NO_THROW(model.backward(g));
}

TEST(FeedForwardModel, MultiTaskHeads) {
  util::Rng rng(6);
  FeedForwardConfig cfg;
  cfg.dense_dim = 4;
  cfg.hidden = {6};
  cfg.heads = 2;
  FeedForwardModel model(cfg);
  model.init(rng);
  EXPECT_EQ(model.heads(), 2u);
  Batch batch = dense_batch(5, 4, rng);
  Tensor out = model.forward(batch);
  EXPECT_EQ(out.cols(), 2u);
  auto loss = multitask_bce(out, {batch.labels, batch.labels2});
  EXPECT_NO_THROW(model.backward(loss.d_logits));
}

TEST(ConvTextModel, ForwardBackwardShapes) {
  util::Rng rng(7);
  ConvTextConfig cfg;
  cfg.vocab = 50;
  cfg.embed_dim = 8;
  cfg.seq_len = 6;
  cfg.conv_channels = 4;
  cfg.kernel = 3;
  cfg.hidden = {5};
  ConvTextModel model(cfg);
  model.init(rng);
  Batch batch = token_batch(3, 50, rng);
  Tensor out = model.forward(batch);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 1u);
  Tensor g(3, 1);
  std::fill(g.flat().begin(), g.flat().end(), 1.0f);
  model.zero_grad();
  EXPECT_NO_THROW(model.backward(g));
}

TEST(ConvTextModel, CloneIndependent) {
  util::Rng rng(8);
  ConvTextConfig cfg;
  cfg.vocab = 30;
  cfg.embed_dim = 4;
  cfg.seq_len = 5;
  cfg.conv_channels = 3;
  cfg.kernel = 2;
  ConvTextModel model(cfg);
  model.init(rng);
  auto clone = model.clone();
  auto before = clone->get_flat_parameters();
  auto mutated = model.get_flat_parameters();
  mutated[0] += 5.0f;
  model.set_flat_parameters(mutated);
  EXPECT_EQ(clone->get_flat_parameters(), before);
}

// --- Zoo parameter counts: architecture fidelity against Table 5. ---

// gtest names each case by the raw bytes of its parameter, so the padding after
// `id` is spelled out and zeroed: implicit padding is indeterminate and would
// give the cases a different name on every run.
struct ZooExpectation {
  char id;
  char padding[7];
  std::size_t params;
};
static_assert(sizeof(ZooExpectation) == 16);

class ZooParamTest : public ::testing::TestWithParam<ZooExpectation> {};

TEST_P(ZooParamTest, ParameterCountMatchesPaperScale) {
  const ZooExpectation& expectation = GetParam();
  util::Rng rng(9);
  auto model = build_zoo_model(expectation.id, rng);
  EXPECT_EQ(model->parameter_count(), expectation.params);
}

INSTANTIATE_TEST_SUITE_P(Table5, ZooParamTest,
                         ::testing::Values(ZooExpectation{'A', {}, 1497},     // paper: 1.51k
                                           ZooExpectation{'B', {}, 188827},   // paper: 189k
                                           ZooExpectation{'C', {}, 208121},   // paper: 208k
                                           ZooExpectation{'D', {}, 389969},   // paper: 390k
                                           ZooExpectation{'E', {}, 922018})); // paper: 922k

TEST(ModelZoo, SpecLookup) {
  EXPECT_EQ(model_spec('A').description, "Tiny Neural Net");
  EXPECT_EQ(model_zoo().size(), 5u);
  EXPECT_THROW(model_spec('Z'), util::CheckError);
}

TEST(ModelZoo, UpdateBytesMatchesParamCount) {
  util::Rng rng(10);
  auto model = build_zoo_model('A', rng);
  EXPECT_EQ(model->update_bytes(), model->parameter_count() * sizeof(float));
}

TEST(ModelZoo, AllModelsForwardOnAppropriateData) {
  util::Rng rng(11);
  for (const auto& spec : model_zoo()) {
    auto model = build_zoo_model(spec.id, rng);
    std::vector<Example> examples(2);
    for (auto& e : examples) {
      e.dense.resize(32, 0.1f);
      e.tokens = {1, 2, 3};
    }
    // Models A and E consume 32 dense features; B, C, D are token-only.
    std::size_t dense_dim = (spec.id == 'A' || spec.id == 'E') ? 32 : 0;
    Batch batch = Batch::from_examples(examples, dense_dim);
    Tensor out = model->forward(batch);
    EXPECT_EQ(out.rows(), 2u) << "model " << spec.id;
  }
}

}  // namespace
}  // namespace flint::ml
