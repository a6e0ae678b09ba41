// Steady-state allocation guard for the local-SGD hot path. This binary
// replaces the global operator new with a counting one, so it stands alone:
// after one warm-up batch has grown every workspace, a dense or ReLU layer's
// forward + backward must not allocate, nor must a model's (the logits it
// returns are its own workspace), and a warm LocalTrainer::train allocates
// only the delta it returns. An executor's lease decode into its kept
// message must not allocate once it has seen the lease shape.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "flint/fl/trainer.h"
#include "flint/ml/batch.h"
#include "flint/ml/layers.h"
#include "flint/ml/model.h"
#include "flint/rpc/frame.h"
#include "flint/rpc/messages.h"
#include "flint/util/rng.h"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  // flint-lint: allow(throw): a replacement operator new reports failure this way
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  // flint-lint: allow(throw): a replacement operator new reports failure this way
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace flint::ml {
namespace {

Tensor random_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

/// Allocations made by fn().
template <typename F>
long allocations_in(F&& fn) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocGuard, CounterSeesAllocations) {
  EXPECT_GE(allocations_in([] { Tensor t(4, 4); }), 1);
}

TEST(AllocGuard, LayersAllocateNothingAfterWarmUp) {
  util::Rng rng(1);
  DenseLayer dense(16, 32);
  dense.init(rng);
  ReluLayer relu;
  const Tensor x = random_tensor(16, 16, rng);
  const Tensor dy = random_tensor(16, 32, rng);
  auto step = [&] {
    dense.backward(relu.backward(dy));
    relu.forward(dense.forward(x));
  };
  relu.forward(dense.forward(x));
  step();
  EXPECT_EQ(allocations_in(step), 0);
  // A smaller batch fits in the grown workspaces too.
  const Tensor x7 = random_tensor(7, 16, rng);
  const Tensor dy7 = random_tensor(7, 32, rng);
  EXPECT_EQ(allocations_in([&] {
              relu.forward(dense.forward(x7));
              dense.backward(relu.backward(dy7));
            }),
            0);
}

TEST(AllocGuard, ModelAllocatesOnlyTheLogits) {
  util::Rng rng(2);
  FeedForwardConfig cfg;  // the ads MLP: 16 -> 32 -> 16 -> 1
  cfg.dense_dim = 16;
  cfg.hidden = {32, 16};
  FeedForwardModel model(cfg);
  model.init(rng);
  Batch batch;
  batch.dense = random_tensor(16, 16, rng);
  batch.labels.assign(16, 1.0f);
  const Tensor d_logits = random_tensor(16, 1, rng);
  model.forward(batch);
  model.backward(d_logits);
  const long allocations = allocations_in([&] {
    const Tensor& logits = model.forward(batch);
    EXPECT_EQ(logits.rows(), 16u);
    model.backward(d_logits);
  });
  EXPECT_EQ(allocations, 0);
}

std::vector<Example> ads_client(std::size_t n, util::Rng& rng) {
  std::vector<Example> examples(n);
  for (Example& e : examples) {
    e.dense.resize(16);
    for (float& v : e.dense) v = static_cast<float>(rng.normal(0.0, 1.0));
    e.label = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  return examples;
}

TEST(AllocGuard, WarmLocalTrainAllocatesOnlyTheDelta) {
  util::Rng rng(4);
  FeedForwardConfig cfg;  // the ads MLP again
  cfg.dense_dim = 16;
  cfg.hidden = {32, 16};
  auto model = std::make_unique<FeedForwardModel>(cfg);
  model->init(rng);
  const std::vector<float> params = model->get_flat_parameters();
  fl::LocalTrainer trainer(std::move(model), 16);
  fl::LocalTrainConfig local;  // batch 16, plain SGD
  const std::vector<Example> big = ads_client(200, rng);
  const std::vector<Example> small = ads_client(37, rng);  // ends in a batch of 5
  trainer.train(big, params, local);
  // One allocation per call: the returned delta vector, freed on return.
  EXPECT_EQ(allocations_in([&] { trainer.train(big, params, local); }), 1);
  EXPECT_EQ(allocations_in([&] { trainer.train(small, params, local); }), 1);
}

TEST(AllocGuard, WarmLeaseDecodeAllocatesNothing) {
  util::Rng rng(3);
  rpc::TaskLeaseMsg lease;  // fedavg_fleet's shape: 200 ads examples of 16 features
  lease.params.resize(1089);
  for (float& v : lease.params) v = static_cast<float>(rng.normal(0.0, 1.0));
  lease.examples.resize(200);
  for (Example& e : lease.examples) {
    e.dense.resize(16);
    for (float& v : e.dense) v = static_cast<float>(rng.normal(0.0, 1.0));
    e.label = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  const std::vector<char> first = lease.serialize();
  lease.client_id = 7;
  for (float& v : lease.params) v *= 0.5f;
  const std::vector<char> second = lease.serialize();
  rpc::TaskLeaseMsg kept;
  rpc::TaskLeaseMsg::deserialize(first, kept);
  EXPECT_EQ(allocations_in([&] { rpc::TaskLeaseMsg::deserialize(second, kept); }), 0);
  EXPECT_EQ(kept.serialize(), second);
}

TEST(AllocGuard, WarmFrameEncodeAndDecodeAllocateNothing) {
  // A lease-sized frame through a kept send buffer, a kept decoder and a kept
  // receive frame, as a transport and ExecutorWorker::run hold them.
  const rpc::Frame lease{rpc::MessageType::kTaskLease, std::vector<char>(22953, 'a')};
  std::vector<char> wire;
  rpc::FrameDecoder decoder;
  rpc::Frame kept;
  bool decoded = true;
  auto round_trip = [&] {
    rpc::encode_frame(lease, wire);
    decoder.feed(wire.data(), wire.size());
    decoded = decoded && decoder.next(kept);
  };
  round_trip();
  round_trip();
  EXPECT_EQ(allocations_in(round_trip), 0);
  EXPECT_TRUE(decoded);
  EXPECT_EQ(kept.payload, lease.payload);
}

}  // namespace
}  // namespace flint::ml
