#include "flint/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "flint/util/check.h"
#include "flint/util/rng.h"

namespace flint::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 32.0 / 7.0);  // Bessel-corrected, this classic set
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.sample_variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(median(v), 25.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 30.0), 7.0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50.0), CheckError);
  EXPECT_THROW(percentile({1.0}, -1.0), CheckError);
  EXPECT_THROW(percentile({1.0}, 101.0), CheckError);
}

TEST(Summarize, Fields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p90, 90.1, 0.5);
}

TEST(Summarize, EmptyGivesZeros) {
  Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

class LognormalMomentsTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LognormalMomentsTest, RoundTripsAnalytically) {
  auto [mean, stddev] = GetParam();
  LognormalParams p = lognormal_from_moments(mean, stddev);
  // Analytic moments of lognormal(mu, sigma).
  double m = std::exp(p.mu + p.sigma * p.sigma / 2.0);
  double var = (std::exp(p.sigma * p.sigma) - 1.0) * std::exp(2.0 * p.mu + p.sigma * p.sigma);
  EXPECT_NEAR(m, mean, mean * 1e-9);
  EXPECT_NEAR(std::sqrt(var), stddev, stddev * 1e-6 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LognormalMomentsTest,
                         ::testing::Values(std::pair{99.0, 667.0},   // Table 2 Dataset A
                                           std::pair{184.0, 374.0},  // Dataset B
                                           std::pair{1.53, 1.47},    // Dataset C
                                           std::pair{240.0, 480.0}, std::pair{1.0, 0.1}));

TEST(LognormalMoments, ZeroStdDegenerates) {
  LognormalParams p = lognormal_from_moments(10.0, 0.0);
  EXPECT_NEAR(std::exp(p.mu), 10.0, 1e-6);
  EXPECT_LT(p.sigma, 1e-6);
}

TEST(LognormalMoments, RejectsNonPositiveMean) {
  EXPECT_THROW(lognormal_from_moments(0.0, 1.0), CheckError);
  EXPECT_THROW(lognormal_from_moments(-1.0, 1.0), CheckError);
}

}  // namespace
}  // namespace flint::util
