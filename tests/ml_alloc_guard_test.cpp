// Steady-state allocation guard for the local-SGD hot path. This binary
// replaces the global operator new with a counting one, so it stands alone:
// after one warm-up batch has grown every workspace, a dense or ReLU layer's
// forward + backward must not allocate, and a model's forward + backward may
// allocate only the logits tensor it returns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "flint/ml/batch.h"
#include "flint/ml/layers.h"
#include "flint/ml/model.h"
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
    Tensor logits = model.forward(batch);
    model.backward(d_logits);
  });
  EXPECT_LE(allocations, 1);
}

}  // namespace
}  // namespace flint::ml
