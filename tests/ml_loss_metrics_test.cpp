#include <gtest/gtest.h>

#include <cmath>

#include "flint/ml/loss.h"
#include "flint/ml/metrics.h"
#include "flint/util/check.h"
#include "test_helpers.h"

namespace flint::ml {
namespace {

// ---------------------------------------------------------------------- BCE

TEST(BceWithLogits, KnownValue) {
  Tensor logits = test::tensor(1, 1, {0.0f});
  auto r = bce_with_logits(logits, {1.0f});
  EXPECT_NEAR(r.loss, std::log(2.0), 1e-6);
  EXPECT_NEAR(r.d_logits.at(0, 0), 0.5f - 1.0f, 1e-6);
}

TEST(BceWithLogits, PerfectPredictionLowLoss) {
  Tensor logits = test::tensor(2, 1, {20.0f, -20.0f});
  auto r = bce_with_logits(logits, {1.0f, 0.0f});
  EXPECT_LT(r.loss, 1e-6);
}

TEST(BceWithLogits, GradientSign) {
  Tensor logits = test::tensor(2, 1, {0.0f, 0.0f});
  auto r = bce_with_logits(logits, {1.0f, 0.0f});
  EXPECT_LT(r.d_logits.at(0, 0), 0.0f);  // push logit up for positives
  EXPECT_GT(r.d_logits.at(1, 0), 0.0f);  // push logit down for negatives
}

TEST(BceWithLogits, StableAtExtremeLogits) {
  Tensor logits = test::tensor(2, 1, {500.0f, -500.0f});
  auto r = bce_with_logits(logits, {0.0f, 1.0f});
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.loss, 500.0, 1.0);  // ~|logit| for a confident wrong answer
}

TEST(BceWithLogits, GradientMatchesFiniteDifference) {
  Tensor logits = test::tensor(3, 1, {0.3f, -1.2f, 2.0f});
  std::vector<float> labels = {1.0f, 0.0f, 1.0f};
  auto r = bce_with_logits(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < 3; ++i) {
    Tensor up = logits, down = logits;
    up.at(i, 0) += eps;
    down.at(i, 0) -= eps;
    double numeric =
        (bce_with_logits(up, labels).loss - bce_with_logits(down, labels).loss) / (2.0 * eps);
    EXPECT_NEAR(r.d_logits.at(i, 0), numeric, 1e-4);
  }
}

TEST(BceWithLogits, RejectsShapeMismatch) {
  Tensor logits(2, 1);
  EXPECT_THROW(bce_with_logits(logits, {1.0f}), util::CheckError);
  Tensor wide(2, 2);
  EXPECT_THROW(bce_with_logits(wide, {1.0f, 0.0f}), util::CheckError);
}

TEST(MultitaskBce, AveragesHeads) {
  Tensor logits = test::tensor(1, 2, {0.0f, 0.0f});
  auto r = multitask_bce(logits, {{1.0f}, {1.0f}});
  EXPECT_NEAR(r.loss, std::log(2.0), 1e-6);  // both heads at log 2, averaged
}

TEST(MultitaskBce, HeadWeights) {
  Tensor logits = test::tensor(1, 2, {0.0f, 0.0f});
  auto r = multitask_bce(logits, {{1.0f}, {1.0f}}, {1.0, 0.0});
  EXPECT_NEAR(r.loss, std::log(2.0), 1e-6);
  EXPECT_EQ(r.d_logits.at(0, 1), 0.0f);  // zero-weight head contributes nothing
}

// ------------------------------------------------------------------ Ranking

TEST(PairwiseRanking, PerfectOrderLowLoss) {
  Tensor logits = test::tensor(3, 1, {5.0f, 0.0f, -5.0f});
  auto r = pairwise_ranking_loss(logits, {2.0f, 1.0f, 0.0f});
  EXPECT_LT(r.loss, 0.05);
}

TEST(PairwiseRanking, InvertedOrderHighLoss) {
  Tensor logits = test::tensor(2, 1, {-5.0f, 5.0f});
  auto r = pairwise_ranking_loss(logits, {1.0f, 0.0f});
  EXPECT_GT(r.loss, 5.0);
  // The relevant item's score should be pushed up.
  EXPECT_LT(r.d_logits.at(0, 0), 0.0f);
  EXPECT_GT(r.d_logits.at(1, 0), 0.0f);
}

TEST(PairwiseRanking, NoOrderedPairsIsZero) {
  Tensor logits = test::tensor(2, 1, {1.0f, 2.0f});
  auto r = pairwise_ranking_loss(logits, {1.0f, 1.0f});
  EXPECT_EQ(r.loss, 0.0);
  EXPECT_EQ(r.d_logits.at(0, 0), 0.0f);
}

TEST(PairwiseRanking, GradientMatchesFiniteDifference) {
  Tensor logits = test::tensor(3, 1, {0.5f, -0.2f, 0.1f});
  std::vector<float> labels = {2.0f, 0.0f, 1.0f};
  auto r = pairwise_ranking_loss(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < 3; ++i) {
    Tensor up = logits, down = logits;
    up.at(i, 0) += eps;
    down.at(i, 0) -= eps;
    double numeric = (pairwise_ranking_loss(up, labels).loss -
                      pairwise_ranking_loss(down, labels).loss) /
                     (2.0 * eps);
    EXPECT_NEAR(r.d_logits.at(i, 0), numeric, 1e-4);
  }
}

// ------------------------------------------------------------------ Metrics

TEST(AveragePrecision, PerfectRanking) {
  EXPECT_DOUBLE_EQ(average_precision({0.9f, 0.8f, 0.2f, 0.1f}, {1, 1, 0, 0}), 1.0);
}

TEST(AveragePrecision, KnownInterleaved) {
  // Ranking: pos, neg, pos -> AP = (1/1 + 2/3) / 2 = 5/6.
  EXPECT_NEAR(average_precision({0.9f, 0.8f, 0.7f}, {1, 0, 1}), 5.0 / 6.0, 1e-9);
}

TEST(AveragePrecision, NoPositivesIsZero) {
  EXPECT_EQ(average_precision({0.5f, 0.4f}, {0, 0}), 0.0);
}

TEST(AveragePrecision, RandomScoresNearBaseRate) {
  // For random scores AP concentrates near the positive rate.
  std::vector<float> scores, labels;
  for (int i = 0; i < 2000; ++i) {
    scores.push_back(static_cast<float>((i * 2654435761u % 1000) / 1000.0));
    labels.push_back(i % 5 == 0 ? 1.0f : 0.0f);
  }
  EXPECT_NEAR(average_precision(scores, labels), 0.2, 0.05);
}

TEST(Ndcg, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(ndcg_at_k({3.0f, 2.0f, 1.0f}, {2, 1, 0}, 10), 1.0);
}

TEST(Ndcg, KnownSwappedValue) {
  // Labels (2, 1) ranked inverted: DCG = (2^1-1)/log2(2) + (2^2-1)/log2(3);
  // ideal = 3/log2(2) + 1/log2(3).
  double dcg = 1.0 / 1.0 + 3.0 / std::log2(3.0);
  double idcg = 3.0 / 1.0 + 1.0 / std::log2(3.0);
  EXPECT_NEAR(ndcg_at_k({1.0f, 2.0f}, {2, 1}, 10), dcg / idcg, 1e-9);
}

TEST(Ndcg, CutoffRestrictsCredit) {
  // Relevant item at rank 3 with k=2 gets no credit.
  EXPECT_DOUBLE_EQ(ndcg_at_k({3.0f, 2.0f, 1.0f}, {0, 0, 2}, 2), 0.0);
}

TEST(Ndcg, AllZeroRelevanceIsOne) {
  EXPECT_DOUBLE_EQ(ndcg_at_k({0.5f, 0.2f}, {0, 0}, 5), 1.0);
}

TEST(StableSigmoid, MatchesNaiveInSafeRange) {
  for (float x : {-5.0f, -1.0f, 0.0f, 1.0f, 5.0f})
    EXPECT_NEAR(stable_sigmoid(x), 1.0f / (1.0f + std::exp(-x)), 1e-6);
  EXPECT_NEAR(stable_sigmoid(100.0f), 1.0f, 1e-6);
  EXPECT_NEAR(stable_sigmoid(-100.0f), 0.0f, 1e-6);
}

}  // namespace
}  // namespace flint::ml
