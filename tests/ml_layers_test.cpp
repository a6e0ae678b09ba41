#include "flint/ml/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "flint/util/rng.h"
#include "test_helpers.h"

namespace flint::ml {
namespace {

/// Scalar objective used for gradient checking: L = sum_i c_i * out_i with
/// fixed pseudo-random coefficients, so dL/dout = c.
Tensor coefficient_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor c(rows, cols);
  for (float& v : c.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return c;
}

double objective(const Tensor& out, const Tensor& c) {
  double acc = 0.0;
  auto fo = out.flat();
  auto fc = c.flat();
  for (std::size_t i = 0; i < fo.size(); ++i) acc += static_cast<double>(fo[i]) * fc[i];
  return acc;
}

/// Check analytic input-gradients and parameter-gradients of `layer` against
/// central finite differences at the given input.
void check_layer_gradients(Layer& layer, Tensor input, double tol = 2e-2) {
  util::Rng rng(99);
  Tensor out = layer.forward(input);
  Tensor c = coefficient_tensor(out.rows(), out.cols(), rng);
  layer.backward(c);  // gradient of L = <c, out>

  // Save analytic parameter gradients (backward accumulated them).
  std::vector<std::vector<float>> analytic_param_grads;
  for (Parameter* p : layer.parameters()) {
    auto g = p->grad.flat();
    analytic_param_grads.emplace_back(g.begin(), g.end());
  }
  Tensor analytic_input_grad = [&] {
    for (Parameter* p : layer.parameters()) p->grad.zero();
    layer.forward(input);
    return layer.backward(c);
  }();

  const float eps = 1e-3f;
  // Input gradient check (sample a few coordinates to keep it fast).
  for (std::size_t i = 0; i < std::min<std::size_t>(input.size(), 12); ++i) {
    float saved = input[i];
    input[i] = saved + eps;
    double up = objective(layer.forward(input), c);
    input[i] = saved - eps;
    double down = objective(layer.forward(input), c);
    input[i] = saved;
    double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic_input_grad[i], numeric, tol)
        << "input grad mismatch at " << i;
  }
  // Parameter gradient check.
  auto params = layer.parameters();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    auto values = params[pi]->value.flat();
    std::size_t stride = std::max<std::size_t>(1, values.size() / 10);
    for (std::size_t i = 0; i < values.size(); i += stride) {
      float saved = values[i];
      values[i] = saved + eps;
      double up = objective(layer.forward(input), c);
      values[i] = saved - eps;
      double down = objective(layer.forward(input), c);
      values[i] = saved;
      double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(analytic_param_grads[pi][i], numeric, tol)
          << "param " << pi << " grad mismatch at " << i;
    }
  }
}

Tensor random_input(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

TEST(DenseLayer, GradientsMatchFiniteDifferences) {
  util::Rng rng(1);
  DenseLayer layer(5, 3);
  layer.init(rng);
  check_layer_gradients(layer, random_input(4, 5, rng));
}

TEST(DenseLayer, ForwardKnownValues) {
  DenseLayer layer(2, 1);
  // W = [[1],[2]], b = [0.5]
  layer.parameters()[0]->value.at(0, 0) = 1.0f;
  layer.parameters()[0]->value.at(1, 0) = 2.0f;
  layer.parameters()[1]->value[0] = 0.5f;
  Tensor in = test::tensor(1, 2, {3.0f, 4.0f});
  Tensor out = layer.forward(in);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f + 8.0f + 0.5f);
}

TEST(DenseLayer, WrongInputWidthThrows) {
  DenseLayer layer(4, 2);
  Tensor in(1, 3);
  EXPECT_THROW(layer.forward(in), util::CheckError);
}

TEST(ReluLayer, ForwardAndGradientMask) {
  util::Rng rng(2);
  ReluLayer relu;
  Tensor in = test::tensor(1, 4, {-1.0f, 2.0f, 0.0f, -3.0f});
  Tensor out = relu.forward(in);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 2.0f);
  Tensor g(1, 4);
  std::fill(g.flat().begin(), g.flat().end(), 1.0f);
  Tensor din = relu.backward(g);
  EXPECT_EQ(din[0], 0.0f);
  EXPECT_EQ(din[1], 1.0f);
  EXPECT_EQ(din[3], 0.0f);
}

// The loops ReLU ran before it became branch-free and dropped its saved
// input: forward clamps a copy of the input, backward masks on the input.
Tensor reference_relu_forward(const Tensor& input) {
  Tensor out = input;
  for (float& v : out.flat())
    if (v < 0.0f) v = 0.0f;
  return out;
}

Tensor reference_relu_backward(const Tensor& input, const Tensor& d_output) {
  Tensor din = d_output;
  auto in = input.flat();
  auto g = din.flat();
  for (std::size_t i = 0; i < g.size(); ++i)
    if (in[i] <= 0.0f) g[i] = 0.0f;
  return din;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.flat().data(), b.flat().data(), a.size() * sizeof(float)) == 0;
}

TEST(ReluLayer, MatchesReferenceOnSignedZerosAndNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor in = test::tensor(2, 5, {-0.0f, 0.0f, nan, 1.5f, -1.5f, -nan, inf, -inf, 1e-40f, -1e-40f});
  Tensor g = test::tensor(2, 5, {1.0f, -2.0f, 3.0f, -4.0f, 5.0f, -6.0f, 7.0f, -8.0f, 9.0f, -10.0f});
  ReluLayer relu;
  Tensor out = relu.forward(in);
  Tensor din = relu.backward(g);
  EXPECT_TRUE(bit_equal(out, reference_relu_forward(in)));
  EXPECT_TRUE(bit_equal(din, reference_relu_backward(in, g)));
  EXPECT_TRUE(std::signbit(out[0])) << "-0.0 passes through unchanged";
  EXPECT_TRUE(std::isnan(out[2]));
  EXPECT_EQ(din[2], 3.0f) << "NaN is not <= 0, so its gradient passes";
}

// Workspaces that grow, shrink and grow again across batch sizes must give
// the gradients a fresh layer stack gives on the same batches.
TEST(Layers, WorkspaceReuseAcrossBatchSizes) {
  util::Rng rng(8);
  DenseLayer dense(16, 32);
  dense.init(rng);
  ReluLayer relu;
  DenseLayer head(32, 1);
  head.init(rng);
  std::vector<Layer*> stack = {&dense, &relu, &head};

  auto run = [](const std::vector<Layer*>& layers, const Tensor& x, const Tensor& dy) {
    const Tensor* a = &x;
    for (Layer* l : layers) a = &l->forward(*a);
    const Tensor* g = &dy;
    for (auto it = layers.rbegin(); it != layers.rend(); ++it) g = &(*it)->backward(*g);
    return *g;
  };
  for (std::size_t rows : {16, 7, 16}) {
    const Tensor x = random_input(rows, 16, rng);
    const Tensor dy = random_input(rows, 1, rng);
    std::vector<std::unique_ptr<Layer>> fresh;
    std::vector<Layer*> fresh_stack;
    for (Layer* l : stack) {
      fresh.push_back(l->clone());
      fresh_stack.push_back(fresh.back().get());
    }
    for (Layer* l : stack)
      for (Parameter* p : l->parameters()) p->grad.zero();
    for (Layer* l : fresh_stack)
      for (Parameter* p : l->parameters()) p->grad.zero();
    const Tensor dx = run(stack, x, dy);
    const Tensor fresh_dx = run(fresh_stack, x, dy);
    EXPECT_TRUE(bit_equal(dx, fresh_dx)) << "input gradient differs at " << rows << " rows";
    for (std::size_t li = 0; li < stack.size(); ++li) {
      auto params = stack[li]->parameters();
      auto fresh_params = fresh_stack[li]->parameters();
      for (std::size_t pi = 0; pi < params.size(); ++pi)
        EXPECT_TRUE(bit_equal(params[pi]->grad, fresh_params[pi]->grad))
            << "layer " << li << " param " << pi << " grad differs at " << rows << " rows";
    }
  }
}

TEST(DenseLayer, BackwardAccumulatesIntoGradients) {
  util::Rng rng(9);
  DenseLayer layer(4, 3);
  layer.init(rng);
  const Tensor x = random_input(5, 4, rng);
  const Tensor dy = random_input(5, 3, rng);
  layer.forward(x);
  layer.backward(dy);
  const Tensor once = layer.parameters()[0]->grad;
  layer.backward(dy);
  Tensor twice = once;
  twice += once;
  EXPECT_TRUE(bit_equal(layer.parameters()[0]->grad, twice));
}

TEST(DenseLayer, InputGradCanBeSkipped) {
  util::Rng rng(10);
  DenseLayer full(4, 3);
  full.init(rng);
  DenseLayer first(4, 3, /*input_grad=*/false);
  for (std::size_t pi = 0; pi < 2; ++pi)
    first.parameters()[pi]->value = full.parameters()[pi]->value;
  const Tensor x = random_input(5, 4, rng);
  const Tensor dy = random_input(5, 3, rng);
  full.forward(x);
  first.forward(x);
  EXPECT_EQ(full.backward(dy).rows(), 5u);
  EXPECT_TRUE(first.backward(dy).empty());
  for (std::size_t pi = 0; pi < 2; ++pi)
    EXPECT_TRUE(bit_equal(full.parameters()[pi]->grad, first.parameters()[pi]->grad));
}

TEST(EmbeddingBag, MeanPoolsTokenVectors) {
  EmbeddingBagLayer bag(4, 2);
  // Row t = (t, 10t).
  for (std::size_t t = 0; t < 4; ++t) {
    bag.parameters()[0]->value.at(t, 0) = static_cast<float>(t);
    bag.parameters()[0]->value.at(t, 1) = static_cast<float>(10 * t);
  }
  Tensor out = bag.forward({{1, 3}, {}});
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);   // mean(1, 3)
  EXPECT_FLOAT_EQ(out.at(0, 1), 20.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);   // empty token list -> zeros
}

TEST(EmbeddingBag, BackwardDistributesGradients) {
  EmbeddingBagLayer bag(3, 1);
  bag.forward({{0, 1}});
  Tensor g(1, 1);
  g[0] = 1.0f;
  bag.backward(g);
  EXPECT_FLOAT_EQ(bag.parameters()[0]->grad.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(bag.parameters()[0]->grad.at(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(bag.parameters()[0]->grad.at(2, 0), 0.0f);
}

TEST(EmbeddingBag, OutOfRangeTokensClampToOov) {
  EmbeddingBagLayer bag(2, 1);
  bag.parameters()[0]->value.at(0, 0) = 5.0f;
  bag.parameters()[0]->value.at(1, 0) = 7.0f;
  Tensor out = bag.forward({{-3}, {100}});
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);  // clamps to id 0
  EXPECT_FLOAT_EQ(out.at(1, 0), 7.0f);  // clamps to last id
}

TEST(HashedBag, DeterministicAndInRange) {
  HashedBagLayer bag(16);
  for (std::int32_t t = 0; t < 100; ++t) {
    std::size_t b1 = bag.bucket_of(t);
    std::size_t b2 = bag.bucket_of(t);
    EXPECT_EQ(b1, b2);
    EXPECT_LT(b1, 16u);
  }
}

TEST(HashedBag, ForwardNormalization) {
  HashedBagLayer bag(8);
  Tensor out = bag.forward({{1, 2, 3, 4}});
  // Four tokens, each contributing 1/sqrt(4) = 0.5; total mass = 2.0 if no
  // collisions, less concentrated otherwise — l1 norm is exactly 2.0.
  double l1 = 0.0;
  for (float v : out.flat()) l1 += std::abs(v);
  EXPECT_NEAR(l1, 2.0, 1e-5);
}

TEST(Conv1dMaxPool, GradientsMatchFiniteDifferences) {
  util::Rng rng(5);
  Conv1dMaxPoolLayer layer(/*seq_len=*/6, /*in_ch=*/3, /*out_ch=*/2, /*kernel=*/2);
  layer.init(rng);
  check_layer_gradients(layer, random_input(2, 18, rng), /*tol=*/5e-2);
}

TEST(Conv1dMaxPool, OutputShape) {
  util::Rng rng(6);
  Conv1dMaxPoolLayer layer(8, 4, 5, 3);
  layer.init(rng);
  Tensor out = layer.forward(random_input(3, 32, rng));
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 5u);
}

TEST(Conv1dMaxPool, RejectsBadKernel) {
  EXPECT_THROW(Conv1dMaxPoolLayer(4, 2, 2, 5), util::CheckError);
}

TEST(Layers, CloneIsDeepCopy) {
  util::Rng rng(7);
  DenseLayer layer(3, 2);
  layer.init(rng);
  auto copy = layer.clone();
  // Mutate the original; the clone must not change.
  float before = copy->parameters()[0]->value[0];
  layer.parameters()[0]->value[0] += 10.0f;
  EXPECT_EQ(copy->parameters()[0]->value[0], before);
}

}  // namespace
}  // namespace flint::ml
