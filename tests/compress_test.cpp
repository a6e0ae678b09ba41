#include "flint/compress/quantize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "flint/util/check.h"
#include "flint/util/rng.h"

namespace flint::compress {
namespace {

std::vector<float> random_update(std::size_t n, util::Rng& rng, double scale = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

double l2_error(const std::vector<float>& a, const std::vector<float>& b) {
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    sq += (static_cast<double>(a[i]) - b[i]) * (a[i] - b[i]);
  return std::sqrt(sq);
}

double l2(const std::vector<float>& a) {
  double sq = 0.0;
  for (float v : a) sq += static_cast<double>(v) * v;
  return std::sqrt(sq);
}

// ----------------------------------------------------------------- Int8

TEST(QuantizeInt8, RoundTripErrorBounded) {
  util::Rng rng(1);
  auto update = random_update(1000, rng);
  QuantizedUpdate q = quantize_int8(update);
  EXPECT_EQ(q.dim(), 1000u);
  auto back = dequantize(q);
  // Max per-coordinate error is scale/2; relative L2 error is small.
  float max_abs = 0.0f;
  for (float v : update) max_abs = std::max(max_abs, std::abs(v));
  for (std::size_t i = 0; i < update.size(); ++i)
    EXPECT_LE(std::abs(update[i] - back[i]), q.scale * 0.5f + 1e-6f);
  EXPECT_LT(l2_error(update, back) / l2(update), 0.01);
}

TEST(QuantizeInt8, PayloadIsQuarterSize) {
  util::Rng rng(2);
  auto update = random_update(4096, rng);
  QuantizedUpdate q = quantize_int8(update);
  EXPECT_EQ(q.payload_bytes(), 4096u + sizeof(float));
  EXPECT_LT(static_cast<double>(q.payload_bytes()),
            0.26 * static_cast<double>(update.size() * sizeof(float)));
}

TEST(QuantizeInt8, AllZerosStable) {
  std::vector<float> zeros(16, 0.0f);
  QuantizedUpdate q = quantize_int8(zeros);
  for (float v : dequantize(q)) EXPECT_EQ(v, 0.0f);
}

TEST(QuantizeInt8, ExtremesMapToFullRange) {
  std::vector<float> update = {-10.0f, 10.0f, 0.0f};
  QuantizedUpdate q = quantize_int8(update);
  auto back = dequantize(q);
  EXPECT_NEAR(back[0], -10.0f, 0.1f);
  EXPECT_NEAR(back[1], 10.0f, 0.1f);
  EXPECT_EQ(back[2], 0.0f);
}

// ----------------------------------------------------------------- Top-k

TEST(TopK, KeepsLargestMagnitudes) {
  std::vector<float> update = {0.1f, -5.0f, 0.2f, 3.0f, -0.05f};
  SparseUpdate s = top_k_sparsify(update, 2);
  ASSERT_EQ(s.indices.size(), 2u);
  EXPECT_EQ(s.indices[0], 1u);
  EXPECT_EQ(s.indices[1], 3u);
  EXPECT_EQ(s.values[0], -5.0f);
  EXPECT_EQ(s.values[1], 3.0f);
  auto dense = densify(s);
  EXPECT_EQ(dense.size(), 5u);
  EXPECT_EQ(dense[0], 0.0f);
  EXPECT_EQ(dense[1], -5.0f);
}

TEST(TopK, KLargerThanDimKeepsAll) {
  std::vector<float> update = {1.0f, 2.0f};
  SparseUpdate s = top_k_sparsify(update, 10);
  EXPECT_EQ(s.indices.size(), 2u);
  EXPECT_EQ(densify(s), update);
}

TEST(TopK, IndicesStrictlyIncreasing) {
  util::Rng rng(3);
  auto update = random_update(500, rng);
  SparseUpdate s = top_k_sparsify(update, 50);
  for (std::size_t i = 1; i < s.indices.size(); ++i)
    EXPECT_GT(s.indices[i], s.indices[i - 1]);
}

TEST(TopK, CapturesMostEnergyOnHeavyTailedUpdates) {
  // Sparse-ish update (like embedding gradients): top 10% holds most energy.
  util::Rng rng(4);
  std::vector<float> update(1000, 0.0f);
  for (int i = 0; i < 50; ++i)
    update[static_cast<std::size_t>(rng.uniform_int(0, 999))] =
        static_cast<float>(rng.normal(0.0, 5.0));
  SparseUpdate s = top_k_sparsify(update, 100);
  EXPECT_GT(l2(densify(s)) / (l2(update) + 1e-12), 0.999);
}

// Property sweep: the symmetric int8 scheme guarantees per-element
// |x - dequantize(quantize(x))| <= scale/2 — max-abs/127 scaling means no
// value saturates, so the only loss is round-to-nearest. Holds across sizes
// (SIMD remainder lanes) and magnitudes (tiny through huge updates); the
// epsilon term absorbs the one float rounding in q * scale.
TEST(QuantizeInt8, RoundTripErrorWithinHalfScaleProperty) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{127},
                        std::size_t{128}, std::size_t{1000}}) {
    for (double magnitude : {1e-6, 1.0, 3e4}) {
      util::Rng rng(9000 + n + static_cast<std::uint64_t>(magnitude));
      auto update = random_update(n, rng, magnitude);
      QuantizedUpdate q = quantize_int8(update);
      auto back = dequantize(q);
      ASSERT_EQ(back.size(), n);
      const float bound = q.scale * 0.5f * (1.0f + 1e-5f);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(update[i] - back[i]), bound)
            << "element " << i << " at n=" << n << " magnitude=" << magnitude;
    }
  }
}

// ------------------------------------------------------- apply_compression

class CompressionRoundTripTest : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(CompressionRoundTripTest, ShrinksPayloadKeepsDirection) {
  util::Rng rng(5);
  auto original = random_update(2048, rng);
  auto update = original;
  CompressionConfig cfg;
  cfg.kind = GetParam();
  cfg.top_k_fraction = 0.25;
  std::size_t bytes = apply_compression(update, cfg);
  EXPECT_EQ(update.size(), original.size());
  std::size_t raw = original.size() * sizeof(float);
  if (cfg.kind == CompressionKind::kNone) {
    EXPECT_EQ(bytes, raw);
    EXPECT_EQ(update, original);
  } else {
    EXPECT_LT(bytes, raw);
    // Cosine similarity with the original stays high.
    double dot = 0.0;
    for (std::size_t i = 0; i < update.size(); ++i)
      dot += static_cast<double>(update[i]) * original[i];
    EXPECT_GT(dot / (l2(update) * l2(original)), 0.4);
  }
  EXPECT_EQ(bytes, compressed_bytes(original.size(), cfg));
}

INSTANTIATE_TEST_SUITE_P(Kinds, CompressionRoundTripTest,
                         ::testing::Values(CompressionKind::kNone, CompressionKind::kInt8,
                                           CompressionKind::kTopK));

TEST(CompressedBytes, TopKScalesWithFraction) {
  CompressionConfig cfg;
  cfg.kind = CompressionKind::kTopK;
  cfg.top_k_fraction = 0.1;
  std::size_t small = compressed_bytes(10000, cfg);
  cfg.top_k_fraction = 0.5;
  std::size_t large = compressed_bytes(10000, cfg);
  EXPECT_LT(small, large);
  EXPECT_NEAR(static_cast<double>(large) / small, 5.0, 0.1);
}

}  // namespace
}  // namespace flint::compress
