#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "flint/data/client_dataset.h"
#include "flint/data/dataset_stats.h"
#include "flint/data/partitioner.h"
#include "flint/data/proxy_generator.h"
#include "flint/util/stats.h"

namespace flint::data {
namespace {

ml::Example labeled(float label) {
  ml::Example e;
  e.dense = {1.0f};
  e.label = label;
  return e;
}

std::vector<ml::Example> binary_records(std::size_t n, double positive_rate, util::Rng& rng) {
  std::vector<ml::Example> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(labeled(rng.bernoulli(positive_rate) ? 1.0f : 0.0f));
  return out;
}

// -------------------------------------------------------- FederatedDataset

TEST(FederatedDataset, AddAndLookup) {
  FederatedDataset d;
  d.add_client({7, {labeled(1.0f), labeled(0.0f)}});
  d.add_client({3, {labeled(1.0f)}});
  EXPECT_EQ(d.client_count(), 2u);
  EXPECT_EQ(d.example_count(), 3u);
  EXPECT_TRUE(d.contains(7));
  EXPECT_FALSE(d.contains(8));
  EXPECT_EQ(d.client(7).size(), 2u);
  EXPECT_EQ(d.client_at(1).client_id, 3u);
}

TEST(FederatedDataset, DuplicateClientThrows) {
  FederatedDataset d;
  d.add_client({1, {}});
  EXPECT_THROW(d.add_client({1, {}}), util::CheckError);
}

TEST(FederatedDataset, AppendCreatesOrExtends) {
  FederatedDataset d;
  d.append(5, {labeled(1.0f)});
  d.append(5, {labeled(0.0f), labeled(0.0f)});
  EXPECT_EQ(d.client(5).size(), 3u);
}

TEST(FederatedDataset, UnknownClientThrows) {
  FederatedDataset d;
  EXPECT_THROW(d.client(42), util::CheckError);
}

TEST(FederatedDataset, ToCentralizedFlattens) {
  FederatedDataset d;
  d.add_client({1, {labeled(1.0f), labeled(0.0f)}});
  d.add_client({2, {labeled(1.0f)}});
  EXPECT_EQ(d.to_centralized().size(), 3u);
}

// ------------------------------------------------------------- Partitioning

TEST(ExecutorPartitioning, RoundRobinCoversAllClients) {
  FederatedDataset d;
  for (ClientId c = 0; c < 10; ++c) d.add_client({c, {}});
  auto parts = partition_round_robin(d, 3);
  EXPECT_EQ(parts.partitions.size(), 3u);
  std::size_t total = 0;
  for (const auto& p : parts.partitions) total += p.size();
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(parts.partitions[0].front(), 0u);
  EXPECT_EQ(parts.partitions[1][1], 4u);
}

TEST(ExecutorPartitioning, BalancedEvensOutSkewedLoads) {
  util::Rng rng(1);
  FederatedDataset d;
  // One huge client plus many small ones.
  d.add_client({0, std::vector<ml::Example>(1000, labeled(0.0f))});
  for (ClientId c = 1; c <= 20; ++c)
    d.add_client({c, std::vector<ml::Example>(50, labeled(0.0f))});
  auto parts = partition_balanced(d, 2);
  std::size_t load0 = 0, load1 = 0;
  for (ClientId c : parts.partitions[0]) load0 += d.client(c).size();
  for (ClientId c : parts.partitions[1]) load1 += d.client(c).size();
  // Round-robin would put ~1500 vs ~500; balanced should be within 20%.
  double ratio = static_cast<double>(std::max(load0, load1)) /
                 static_cast<double>(std::min(load0, load1));
  EXPECT_LT(ratio, 1.2);
}

TEST(NaturalPartition, GroupsByKeyAndAnonymizes) {
  std::vector<ml::Example> records(9);
  // Keys 100, 200, 300 repeating.
  auto key_of = [](std::size_t i) { return 100 * (i % 3 + 1); };
  FederatedDataset d = partition_natural(records, key_of);
  EXPECT_EQ(d.client_count(), 3u);
  for (const auto& c : d.clients()) {
    EXPECT_EQ(c.size(), 3u);
    EXPECT_LT(c.client_id, 3u);  // dense re-mapped ids, not raw keys
  }
}

class DirichletConservationTest : public ::testing::TestWithParam<double> {};

TEST_P(DirichletConservationTest, EveryRecordAssignedExactlyOnce) {
  util::Rng rng(7);
  auto records = binary_records(2000, 0.3, rng);
  DirichletPartitionConfig cfg;
  cfg.clients = 50;
  cfg.label_alpha = GetParam();
  FederatedDataset d = partition_dirichlet(records, cfg, rng);
  EXPECT_EQ(d.example_count(), records.size());
  EXPECT_LE(d.client_count(), 50u);
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, DirichletConservationTest,
                         ::testing::Values(0.05, 0.5, 5.0, 100.0));

TEST(DirichletPartition, SmallAlphaIncreasesLabelSkew) {
  util::Rng rng(11);
  auto records = binary_records(20000, 0.5, rng);
  auto label_skew = [&](double alpha) {
    util::Rng local(13);
    DirichletPartitionConfig cfg;
    cfg.clients = 40;
    cfg.label_alpha = alpha;
    FederatedDataset d = partition_dirichlet(records, cfg, local);
    // Mean |client positive rate - 0.5| over clients with enough data.
    double total = 0.0;
    std::size_t counted = 0;
    for (const auto& c : d.clients()) {
      if (c.size() < 20) continue;
      double pos = 0.0;
      for (const auto& e : c.examples) pos += e.label;
      total += std::abs(pos / static_cast<double>(c.size()) - 0.5);
      ++counted;
    }
    return counted == 0 ? 0.0 : total / static_cast<double>(counted);
  };
  EXPECT_GT(label_skew(0.05), label_skew(50.0) + 0.1);
}

TEST(DirichletPartition, SmallQuantityAlphaConcentratesData) {
  util::Rng rng(17);
  auto records = binary_records(10000, 0.5, rng);
  auto top_share = [&](double qalpha) {
    util::Rng local(19);
    DirichletPartitionConfig cfg;
    cfg.clients = 50;
    cfg.quantity_alpha = qalpha;
    FederatedDataset d = partition_dirichlet(records, cfg, local);
    std::size_t biggest = 0;
    for (const auto& c : d.clients()) biggest = std::max(biggest, c.size());
    return static_cast<double>(biggest) / 10000.0;
  };
  EXPECT_GT(top_share(0.1), top_share(50.0) * 2.0);
}

TEST(Downsample, KeepsApproximateFraction) {
  util::Rng rng(23);
  FederatedDataset d;
  for (ClientId c = 0; c < 2000; ++c) d.add_client({c, {labeled(0.0f)}});
  FederatedDataset kept = downsample_clients(d, 0.25, rng);
  EXPECT_NEAR(static_cast<double>(kept.client_count()), 500.0, 60.0);
}

TEST(Downsample, FullFractionKeepsAll) {
  util::Rng rng(29);
  FederatedDataset d;
  d.add_client({1, {}});
  EXPECT_EQ(downsample_clients(d, 1.0, rng).client_count(), 1u);
  EXPECT_THROW(downsample_clients(d, 0.0, rng), util::CheckError);
}

// ------------------------------------------------------------ DatasetStats

TEST(DatasetStats, ComputesTable2Schema) {
  FederatedDataset d;
  d.add_client({1, {labeled(1.0f), labeled(0.0f), labeled(0.0f)}});
  d.add_client({2, {labeled(1.0f)}});
  DatasetStats s = compute_stats(d, "unit", 28);
  EXPECT_EQ(s.client_population, 2u);
  EXPECT_EQ(s.max_records, 3u);
  EXPECT_DOUBLE_EQ(s.avg_records, 2.0);
  EXPECT_DOUBLE_EQ(s.label_ratio, 0.5);
  EXPECT_EQ(s.lookback_days, 28);
  EXPECT_NE(s.to_string().find("unit"), std::string::npos);
}

TEST(DatasetStats, FromCountsMatchesDirect) {
  std::vector<std::uint32_t> counts = {1, 2, 3, 10};
  DatasetStats s = compute_stats_from_counts(counts, 0.06, "c");
  EXPECT_EQ(s.client_population, 4u);
  EXPECT_EQ(s.max_records, 10u);
  EXPECT_DOUBLE_EQ(s.avg_records, 4.0);
  EXPECT_DOUBLE_EQ(s.label_ratio, 0.06);
}

// ---------------------------------------------------------- Proxy generator

TEST(DataCatalog, VersionsAccumulate) {
  DataCatalog catalog;
  EXPECT_EQ(catalog.add_version("ads"), 1);
  EXPECT_EQ(catalog.add_version("ads"), 2);
  EXPECT_EQ(catalog.add_version("search"), 1);
  EXPECT_EQ(catalog.add_version("ads"), 3);
}

TEST(ProxyGenerator, NaturalStrategyRegistersWithStats) {
  util::Rng rng(31);
  DataCatalog catalog;
  ProxyGenerator gen(catalog);
  auto records = binary_records(300, 0.28, rng);
  ProxyConfig cfg;
  cfg.name = "ads-proxy";
  cfg.lookback_days = 90;
  auto entry = gen.generate(records, cfg, [](std::size_t i) { return i % 30; }, rng);
  EXPECT_EQ(entry.version, 1);
  EXPECT_EQ(entry.stats.client_population, 30u);
  EXPECT_NEAR(entry.stats.avg_records, 10.0, 1e-9);
  EXPECT_NEAR(entry.stats.label_ratio, 0.28, 0.1);
  EXPECT_EQ(gen.generate(records, cfg, [](std::size_t i) { return i % 30; }, rng).version, 2);
}

TEST(ProxyGenerator, DirichletStrategyNeedsNoKey) {
  util::Rng rng(37);
  DataCatalog catalog;
  ProxyGenerator gen(catalog);
  auto records = binary_records(500, 0.5, rng);
  ProxyConfig cfg;
  cfg.name = "synthetic";
  cfg.strategy = PartitionStrategy::kDirichlet;
  cfg.dirichlet.clients = 25;
  auto entry = gen.generate(records, cfg, nullptr, rng);
  EXPECT_EQ(entry.dataset->example_count(), 500u);
}

TEST(ProxyGenerator, NaturalWithoutKeyThrows) {
  util::Rng rng(41);
  DataCatalog catalog;
  ProxyGenerator gen(catalog);
  auto records = binary_records(10, 0.5, rng);
  ProxyConfig cfg;
  EXPECT_THROW(gen.generate(records, cfg, nullptr, rng), util::CheckError);
}

// ------------------------------------------------------- Quantity profiles

class QuantityProfileTest
    : public ::testing::TestWithParam<std::tuple<double, double, std::uint32_t>> {};

TEST_P(QuantityProfileTest, MatchesTargetMoments) {
  auto [mean, stddev, cap] = GetParam();
  util::Rng rng(43);
  QuantityProfileConfig cfg;
  cfg.population = 200000;
  cfg.mean_records = mean;
  cfg.std_records = stddev;
  cfg.max_records = cap;
  auto counts = sample_quantity_profile(cfg, rng);
  ASSERT_EQ(counts.size(), cfg.population);
  util::RunningStats s;
  for (auto c : counts) {
    ASSERT_GE(c, 1u);
    ASSERT_LE(c, cap);
    s.add(static_cast<double>(c));
  }
  // Truncation (cap + floor at 1) shifts moments; allow generous tolerance.
  EXPECT_NEAR(s.mean(), mean, mean * 0.30 + 0.6);
  EXPECT_LT(s.max(), static_cast<double>(cap) + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Table2Profiles, QuantityProfileTest,
                         ::testing::Values(std::tuple{99.0, 667.0, 39731u},    // Dataset A
                                           std::tuple{184.0, 374.0, 103471u},  // Dataset B
                                           std::tuple{1.53, 1.47, 406u}));     // Dataset C

TEST(QuantityProfile, SuperuserTailRaisesMax) {
  util::Rng rng(47);
  QuantityProfileConfig base;
  base.population = 50000;
  base.mean_records = 20;
  base.std_records = 30;
  base.max_records = 1000000;
  auto plain = sample_quantity_profile(base, rng);
  QuantityProfileConfig with_tail = base;
  with_tail.superuser_fraction = 0.01;
  with_tail.superuser_alpha = 0.9;
  util::Rng rng2(47);
  auto tailed = sample_quantity_profile(with_tail, rng2);
  auto max_of = [](const std::vector<std::uint32_t>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  EXPECT_GT(max_of(tailed), max_of(plain) * 2);
}

}  // namespace
}  // namespace flint::data
