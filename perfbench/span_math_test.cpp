// Hand-made span sets for the benchmark's span math: the tail-percentile
// rule, and self time under overlapping and out-of-range child spans.
#include "span_math.h"

#include <gtest/gtest.h>

#include "spans.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  auto v = one_to(10);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50), 5);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 90), 9);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 91), 10);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100), 10);
}

TEST(TailPercentile, TooFewSamplesHasNoTail) {
  EXPECT_FALSE(tail_percentile({}).has_value());
  EXPECT_FALSE(tail_percentile(one_to(19)).has_value());
}

TEST(TailPercentile, MedianNeedsTwentySamples) {
  auto tail = tail_percentile(one_to(20));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->percentile, 50.0);
  EXPECT_DOUBLE_EQ(tail->value, 10.0);  // ranks 11..20 lie beyond it
  EXPECT_EQ(tail->samples, 20u);
}

TEST(TailPercentile, ClimbsTheLadderWithSampleCount) {
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(99))->percentile, 50.0);   // p90: 9 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(100))->percentile, 90.0);  // p90: 10 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(199))->percentile, 90.0);  // p95: 9 beyond
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(200))->percentile, 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(1000))->percentile, 99.0);
  auto big = tail_percentile(one_to(10000));
  EXPECT_DOUBLE_EQ(big->percentile, 99.9);
  EXPECT_DOUBLE_EQ(big->value, 9990.0);
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> shuffled = {7, 3, 19, 1, 12, 20, 5, 16, 9, 2,
                                  14, 11, 4, 18, 8, 13, 6, 17, 10, 15};
  EXPECT_DOUBLE_EQ(tail_percentile(shuffled)->value, 10.0);
}

TEST(UnionLength, DisjointNestedOverlappingAndEmpty) {
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
  EXPECT_DOUBLE_EQ(union_length({{0, 1}, {2, 4}}), 3.0);
  EXPECT_DOUBLE_EQ(union_length({{0, 10}, {2, 3}, {4, 5}}), 10.0);
  EXPECT_DOUBLE_EQ(union_length({{3, 6}, {0, 4}, {5, 8}}), 8.0);
  EXPECT_DOUBLE_EQ(union_length({{0, 1}, {1, 2}}), 2.0);  // touching
  EXPECT_DOUBLE_EQ(union_length({{5, 5}, {7, 6}}), 0.0);  // empty, inverted
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_DOUBLE_EQ(self_time({2, 7}, {}), 5.0);
}

TEST(SelfTime, DisjointChildrenSubtractTheirSum) {
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{1, 2}, {4, 7}}), 6.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two concurrent children covering [1,5) and [3,8) hide 7 units, not 9.
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{1, 5}, {3, 8}}), 3.0);
  // Three-way overlap plus a nested child.
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{2, 6}, {3, 4}, {5, 9}, {1, 3}}), 2.0);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_DOUBLE_EQ(self_time({2, 6}, {{0, 3}, {5, 9}}), 2.0);
  EXPECT_DOUBLE_EQ(self_time({2, 6}, {{7, 9}}), 4.0);
  EXPECT_DOUBLE_EQ(self_time({2, 6}, {{0, 10}}), 0.0);
}

TEST(SelfTime, EmptyParent) {
  EXPECT_DOUBLE_EQ(self_time({4, 4}, {{0, 10}}), 0.0);
}

TEST(SpanRecorder, BuildsACallTreeFromOpenSpans) {
  SpanRecorder rec(true);
  int run = rec.begin("fl.run");
  double t = rec.now();
  rec.add("device.window_next", t, t);
  int inner = rec.begin("rpc.recv");
  rec.end(inner);
  rec.end(run);
  rec.add("rpc.lease", 0.0, 1.0, /*track=*/1);
  EXPECT_EQ(rec.children_of(run).size(), 2u);
  EXPECT_EQ(rec.count("rpc.recv", run), 1u);
  EXPECT_EQ(rec.count("rpc.lease", -1), 1u);
  EXPECT_EQ(rec.named("fl.run").size(), 1u);
  EXPECT_THROW(rec.end(run), std::logic_error);
}

}  // namespace
}  // namespace perfbench
