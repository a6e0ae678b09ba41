#include <gtest/gtest.h>

#include "flint/feature/feature_cache.h"
#include "flint/feature/feature_catalog.h"
#include "flint/feature/feature_hashing.h"
#include "flint/feature/vocab.h"

namespace flint::feature {
namespace {

// -------------------------------------------------------------------- Vocab

TEST(Vocab, BuildKeepsMostFrequent) {
  Vocab v = Vocab::build({{"rare", 1}, {"common", 100}, {"mid", 10}}, 2);
  EXPECT_EQ(v.size(), 2u);
  // "common" and "mid" survive; "rare" (4 bytes) does not.
  EXPECT_EQ(v.asset_bytes(), 7u + 4u);
}

TEST(Vocab, TiesBrokenLexicographically) {
  // Equal frequencies, room for one: "ab" sorts before "zzz".
  Vocab v = Vocab::build({{"zzz", 5}, {"ab", 5}}, 1);
  EXPECT_EQ(v.asset_bytes(), 3u);
}

TEST(Vocab, AssetBytesCountsPayload) {
  Vocab v = Vocab::build({{"ab", 1}, {"cde", 1}, {"ab", 1}}, 3);
  EXPECT_EQ(v.size(), 2u);  // duplicates collapse
  EXPECT_EQ(v.asset_bytes(), 2u + 1u + 3u + 1u);
}

// ------------------------------------------------------------------ Hashing

TEST(FeatureHasher, StableAndInRange) {
  FeatureHasher h(64);
  for (const char* token : {"user:123", "country:US", "x"}) {
    EXPECT_EQ(h.bucket(token), h.bucket(token));
    EXPECT_LT(h.bucket(token), 64u);
  }
}

TEST(FeatureHasher, SaltChangesBuckets) {
  FeatureHasher a(1024, 1), b(1024, 2);
  int same = 0;
  for (int i = 0; i < 200; ++i)
    if (a.bucket("tok" + std::to_string(i)) == b.bucket("tok" + std::to_string(i))) ++same;
  EXPECT_LT(same, 10);
}

class CollisionRateTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CollisionRateTest, MeasuredNearExpected) {
  auto [vocab_size, buckets] = GetParam();
  std::vector<std::string> tokens;
  for (int i = 0; i < vocab_size; ++i) tokens.push_back("token-" + std::to_string(i));
  FeatureHasher h(static_cast<std::size_t>(buckets));
  double measured = measured_collision_rate(tokens, h);
  double expected = expected_collision_rate(static_cast<std::size_t>(vocab_size),
                                            static_cast<std::size_t>(buckets));
  EXPECT_NEAR(measured, expected, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CollisionRateTest,
                         ::testing::Values(std::pair{100, 4096}, std::pair{1000, 2048},
                                           std::pair{2000, 1024}, std::pair{500, 500}));

TEST(CollisionRate, ExpectedEdgeCases) {
  EXPECT_DOUBLE_EQ(expected_collision_rate(1, 100), 0.0);
  EXPECT_GT(expected_collision_rate(10000, 10), 0.999);
}

// ---------------------------------------------------------------- LRU cache

TEST(FeatureCache, HitMissAndRecency) {
  FeatureCache cache(1024);
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", {1.0f, 2.0f});
  auto v = cache.get("a");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[1], 2.0f);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_NEAR(cache.stats().hit_rate(), 0.5, 1e-9);
}

TEST(FeatureCache, EvictsLeastRecentlyUsed) {
  FeatureCache cache(3 * 4 * sizeof(float));  // room for 3 four-byte... 12 floats
  cache.put("a", std::vector<float>(4, 1.0f));
  cache.put("b", std::vector<float>(4, 2.0f));
  cache.put("c", std::vector<float>(4, 3.0f));
  cache.get("a");                               // refresh a; b is now LRU
  cache.put("d", std::vector<float>(4, 4.0f));  // evicts b
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_TRUE(cache.contains("d"));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

class CacheBudgetTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheBudgetTest, NeverExceedsByteBudget) {
  std::uint64_t budget = GetParam();
  FeatureCache cache(budget);
  for (int i = 0; i < 200; ++i) {
    cache.put("k" + std::to_string(i), std::vector<float>(1 + i % 7, 0.5f));
    EXPECT_LE(cache.stats().bytes_used, budget);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, CacheBudgetTest, ::testing::Values(16u, 64u, 256u, 4096u));

TEST(FeatureCache, OversizedEntryRejected) {
  FeatureCache cache(8);
  cache.put("big", std::vector<float>(100, 1.0f));
  EXPECT_FALSE(cache.contains("big"));
  EXPECT_EQ(cache.stats().bytes_used, 0u);
}

TEST(FeatureCache, OverwriteUpdatesBytes) {
  FeatureCache cache(1024);
  cache.put("k", std::vector<float>(4, 1.0f));
  cache.put("k", std::vector<float>(2, 2.0f));
  EXPECT_EQ(cache.stats().bytes_used, 2 * sizeof(float));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ((*cache.get("k"))[0], 2.0f);
}

// ------------------------------------------------------------ FeatureCatalog

FeatureCatalog sample_catalog() {
  FeatureCatalog catalog;
  catalog.register_feature({.name = "device/context", .source = FeatureSource::kDevice,
                            .value_bytes = 32});
  catalog.register_feature({.name = "cloud/embedding", .source = FeatureSource::kCloud,
                            .value_bytes = 4096, .cacheable = true});
  catalog.register_feature({.name = "cloud/fresh-score", .source = FeatureSource::kCloud,
                            .value_bytes = 64, .cacheable = false});
  return catalog;
}

TEST(FeatureCatalog, RegisterAndLookup) {
  FeatureCatalog catalog = sample_catalog();
  EXPECT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog.feature("cloud/embedding").value_bytes, 4096u);
  EXPECT_THROW(catalog.feature("nope"), util::CheckError);
  EXPECT_THROW(catalog.register_feature({.name = "device/context"}), util::CheckError);
  EXPECT_THROW(catalog.register_feature({.name = ""}), util::CheckError);
}

TEST(DeviceFeatureRuntime, DeviceFeaturesAreLocal) {
  FeatureCatalog catalog = sample_catalog();
  DeviceFeatureRuntime runtime(catalog, 1 << 20);
  runtime.fetch("device/context", 42);
  EXPECT_EQ(runtime.stats().device_reads, 1u);
  EXPECT_EQ(runtime.stats().cloud_fetches, 0u);
  EXPECT_EQ(runtime.stats().network_bytes, 0u);
}

TEST(DeviceFeatureRuntime, CloudFeatureCachedOnSecondFetch) {
  FeatureCatalog catalog = sample_catalog();
  DeviceFeatureRuntime runtime(catalog, 1 << 20);
  auto first = runtime.fetch("cloud/embedding", 7);
  auto second = runtime.fetch("cloud/embedding", 7);
  EXPECT_EQ(first, second);  // deterministic value
  EXPECT_EQ(runtime.stats().cloud_fetches, 1u);
  EXPECT_EQ(runtime.stats().cache_hits, 1u);
  EXPECT_EQ(runtime.stats().network_bytes, 4096u);
}

TEST(DeviceFeatureRuntime, NonCacheableAlwaysFetches) {
  FeatureCatalog catalog = sample_catalog();
  DeviceFeatureRuntime runtime(catalog, 1 << 20);
  runtime.fetch("cloud/fresh-score", 1);
  runtime.fetch("cloud/fresh-score", 1);
  EXPECT_EQ(runtime.stats().cloud_fetches, 2u);
  EXPECT_EQ(runtime.stats().cache_hits, 0u);
}

TEST(DeviceFeatureRuntime, DistinctEntitiesDistinctValues) {
  FeatureCatalog catalog = sample_catalog();
  DeviceFeatureRuntime runtime(catalog, 1 << 20);
  EXPECT_NE(runtime.fetch("cloud/embedding", 1), runtime.fetch("cloud/embedding", 2));
}

TEST(DeviceFeatureRuntime, LatencyAccumulates) {
  FeatureCatalog catalog = sample_catalog();
  DeviceFeatureRuntime runtime(catalog, 1 << 20, /*cloud_rtt_s=*/0.1, /*bandwidth_mbps=*/1.0);
  runtime.fetch("cloud/embedding", 3);
  // RTT (0.1s) + 4096 bytes over 1 Mbps (~0.033s).
  EXPECT_GT(runtime.stats().total_latency_s, 0.1);
  EXPECT_LT(runtime.stats().total_latency_s, 0.2);
}

}  // namespace
}  // namespace flint::feature
