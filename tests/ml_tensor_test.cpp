#include "flint/ml/tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "flint/ml/kernels/kernels.h"
#include "flint/util/rng.h"
#include "test_helpers.h"

namespace flint::ml {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
  for (float v : t.flat()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(t.shape_string(), "[3, 4]");
}

TEST(Tensor, Rank1Construction) {
  Tensor v(5);
  EXPECT_EQ(v.rows(), 5u);
  EXPECT_EQ(v.cols(), 1u);
}

TEST(Tensor, ElementAccess) {
  Tensor t(2, 3);
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.at(1, 2), 7.0f);
  EXPECT_EQ(t[1 * 3 + 2], 7.0f);
}

TEST(Tensor, FillAndZero) {
  Tensor t = test::tensor(2, 2, {3.0f, 3.0f, 3.0f, 3.0f});
  t.zero();
  for (float v : t.flat()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(t.size(), 4u);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a = test::tensor(1, 3, {1.0f, 2.0f, 3.0f});
  Tensor b = test::tensor(1, 3, {10.0f, 20.0f, 30.0f});
  a += b;
  EXPECT_EQ(a[0], 11.0f);
  EXPECT_EQ(a[2], 33.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a(1, 3), b(3, 1);
  EXPECT_THROW(a += b, util::CheckError);
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a = test::tensor(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = test::tensor(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = a.matmul(b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  Tensor a(2, 3), b(2, 3);
  EXPECT_THROW(a.matmul(b), util::CheckError);
}

/// Property: A^T B from the kernel's transposed_matmul (the weight-gradient
/// product) equals transpose-then-matmul.
TEST(Tensor, TransposedMatmulConsistent) {
  util::Rng rng(3);
  Tensor a(4, 3), b(4, 5);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  Tensor at(3, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  Tensor expected = at.matmul(b);
  Tensor got(3, 5);
  kernels::active().transposed_matmul(a.flat().data(), b.flat().data(), got.flat().data(), 4, 3,
                                      5);
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_NEAR(expected[i], got[i], 1e-4);
}

/// Property: A B^T from the kernel's matmul_transposed (the input-gradient
/// product) equals matmul with an explicit transpose.
TEST(Tensor, MatmulTransposedConsistent) {
  util::Rng rng(5);
  Tensor a(4, 3), b(5, 3);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  Tensor bt(3, 5);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 3; ++j) bt.at(j, i) = b.at(i, j);
  Tensor expected = a.matmul(bt);
  Tensor got(4, 5);
  kernels::active().matmul_transposed(a.flat().data(), b.flat().data(), got.flat().data(), 4, 3,
                                      5);
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_NEAR(expected[i], got[i], 1e-4);
}

TEST(Tensor, RowSpanViews) {
  Tensor t = test::tensor(2, 3, {1, 2, 3, 4, 5, 6});
  auto r = t.row(1);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 4.0f);
  t.row(0)[2] = 99.0f;
  EXPECT_EQ(t.at(0, 2), 99.0f);
}

}  // namespace
}  // namespace flint::ml
