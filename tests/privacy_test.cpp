#include <gtest/gtest.h>

#include <cmath>

#include "flint/privacy/dp.h"
#include "flint/privacy/secure_agg.h"
#include "flint/util/stats.h"

namespace flint::privacy {
namespace {

double l2(const std::vector<float>& v) {
  double sq = 0.0;
  for (float x : v) sq += static_cast<double>(x) * x;
  return std::sqrt(sq);
}

// ------------------------------------------------------------------------ DP

/// Clip-only mechanism (noise_multiplier 0) through the live apply_dp path.
double clip(std::vector<float>& update, double clip_norm) {
  util::Rng rng(9);
  DpConfig cfg;
  cfg.clip_norm = clip_norm;
  cfg.noise_multiplier = 0.0;
  return apply_dp(update, cfg, 1, rng);
}

TEST(Dp, ClipBoundsNorm) {
  std::vector<float> update = {3.0f, 4.0f};  // norm 5
  double pre = clip(update, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(l2(update), 1.0, 1e-5);
  // Direction preserved.
  EXPECT_NEAR(update[0] / update[1], 0.75, 1e-5);
}

TEST(Dp, ClipLeavesSmallUpdates) {
  std::vector<float> update = {0.1f, 0.1f};
  clip(update, 10.0);
  EXPECT_FLOAT_EQ(update[0], 0.1f);
}

class ClipPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ClipPropertyTest, PostNormNeverExceedsBound) {
  double bound = GetParam();
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> update(50);
    for (float& v : update) v = static_cast<float>(rng.normal(0.0, 5.0));
    clip(update, bound);
    EXPECT_LE(l2(update), bound * (1.0 + 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, ClipPropertyTest, ::testing::Values(0.1, 1.0, 10.0));

TEST(Dp, GaussianNoiseHasRequestedStddev) {
  // A zero update is never clipped, so apply_dp adds pure noise with
  // sigma = noise_multiplier * clip_norm / participants = 0.5.
  util::Rng rng(2);
  DpConfig cfg;
  cfg.clip_norm = 2.0;
  cfg.noise_multiplier = 0.5;
  std::vector<float> update(50000, 0.0f);
  apply_dp(update, cfg, 2, rng);
  util::RunningStats s;
  for (float v : update) s.add(v);
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 0.5, 0.01);
}

TEST(Dp, ZeroStddevIsNoop) {
  // No noise: the update is untouched and the stream consumes no draws.
  util::Rng rng(3), fresh(3);
  DpConfig cfg;
  cfg.clip_norm = 10.0;
  cfg.noise_multiplier = 0.0;
  std::vector<float> update = {1.0f, 2.0f};
  apply_dp(update, cfg, 4, rng);
  EXPECT_EQ(update, (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(rng.next_u64(), fresh.next_u64());
}

TEST(Dp, ApplyDpClipsThenNoises) {
  util::Rng rng(4);
  DpConfig cfg;
  cfg.clip_norm = 1.0;
  cfg.noise_multiplier = 0.0001;  // nearly deterministic
  std::vector<float> update = {30.0f, 40.0f};
  double pre = apply_dp(update, cfg, 10, rng);
  EXPECT_NEAR(pre, 50.0, 1e-4);
  EXPECT_NEAR(l2(update), 1.0, 0.01);
}

TEST(DpAccountant, EpsilonGrowsAsSqrtRounds) {
  DpConfig cfg;
  cfg.noise_multiplier = 1.0;
  cfg.delta = 1e-6;
  DpAccountant acc(cfg, 0.01);
  EXPECT_DOUBLE_EQ(acc.epsilon(), 0.0);
  acc.record_rounds(100);
  double e100 = acc.epsilon();
  acc.record_rounds(300);
  double e400 = acc.epsilon();
  EXPECT_NEAR(e400 / e100, 2.0, 1e-9);  // sqrt(400/100)
}

TEST(DpAccountant, MoreNoiseLessEpsilon) {
  DpConfig loud;
  loud.noise_multiplier = 0.5;
  DpConfig quiet;
  quiet.noise_multiplier = 2.0;
  DpAccountant a(loud, 0.01), b(quiet, 0.01);
  a.record_rounds(100);
  b.record_rounds(100);
  EXPECT_GT(a.epsilon(), b.epsilon());
}

TEST(DpAccountant, RoundsUntilInvertsEpsilon) {
  DpConfig cfg;
  cfg.noise_multiplier = 1.0;
  cfg.delta = 1e-6;
  DpAccountant acc(cfg, 0.01);
  std::uint64_t budget_rounds = acc.rounds_until(1.0);
  ASSERT_GT(budget_rounds, 0u);
  acc.record_rounds(budget_rounds);
  EXPECT_LE(acc.epsilon(), 1.0 + 1e-6);
  acc.record_rounds(budget_rounds);  // double it: now over budget
  EXPECT_GT(acc.epsilon(), 1.0);
  EXPECT_EQ(acc.rounds_until(1.0), 0u);
}

TEST(DpAccountant, RejectsBadConfig) {
  DpConfig bad;
  bad.noise_multiplier = 0.0;
  EXPECT_THROW(DpAccountant(bad, 0.1), util::CheckError);
  DpConfig ok;
  EXPECT_THROW(DpAccountant(ok, 0.0), util::CheckError);
  EXPECT_THROW(DpAccountant(ok, 1.5), util::CheckError);
}

// -------------------------------------------------------------------- SecAgg

TEST(TeeAggregator, CapacityCheckMatchesPaperProjection) {
  // §3.5: 3.53 updates/s x 0.76MB updates ~= 2.68 MB/s, within a 24 Mbps TEE.
  TeeConfig cfg;
  cfg.bandwidth_mbps = 24.0;
  cfg.per_update_overhead_bytes = 0;
  TeeSecureAggregator tee(cfg);
  double mbps = tee.required_mbytes_per_s(3.53, 760000);
  EXPECT_NEAR(mbps, 2.68, 0.02);
  EXPECT_TRUE(tee.within_capacity(3.53, 760000));
  EXPECT_FALSE(tee.within_capacity(35.3, 760000));
}

}  // namespace
}  // namespace flint::privacy
