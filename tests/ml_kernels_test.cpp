// Kernel-equivalence suite for flint::ml::kernels (DESIGN.md §16): every
// SIMD path compiled into this binary must agree with the scalar reference —
// bit-for-bit for the elementwise/gather/matmul kernels, within 1 ULP for
// the double-reduction kernels — plus dispatch behaviour and the fused
// clip+noise kernel against an inline two-pass reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "flint/ml/kernels/kernels.h"
#include "flint/util/check.h"
#include "flint/util/rng.h"

namespace flint {
namespace {

namespace k = ml::kernels;

std::vector<k::KernelPath> simd_paths() {
  std::vector<k::KernelPath> paths;
  for (k::KernelPath p : {k::KernelPath::kAvx2, k::KernelPath::kNeon})
    if (k::path_supported(p)) paths.push_back(p);
  return paths;
}

std::vector<float> random_floats(std::size_t n, util::Rng& rng, double stddev = 1.0) {
  std::vector<float> v(n);
  for (float& f : v) f = static_cast<float>(rng.normal(0.0, stddev));
  return v;
}

// memcmp's pointers must be non-null even for a zero length, and an empty
// vector's data() may be null.
bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool within_one_ulp(float a, float b) {
  return a == b || b == std::nextafter(a, b);
}

// Sizes straddle the vector width: remainders of every length get exercised.
constexpr std::size_t kSizes[] = {0, 1, 3, 7, 8, 15, 64, 257, 1000};

TEST(KernelEquivalence, ElementwiseBitIdenticalAcrossPaths) {
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  for (k::KernelPath path : simd_paths()) {
    const auto& simd = k::table_for(path);
    for (std::size_t n : kSizes) {
      util::Rng rng(1000 + n);
      const std::vector<float> x = random_floats(n, rng);
      const std::vector<float> y0 = random_floats(n, rng);
      const std::vector<float> v0 = random_floats(n, rng, 0.1);

      auto check = [&](const char* name, auto&& run) {
        std::vector<float> a = y0, b = y0;
        std::vector<float> va = v0, vb = v0;
        run(scalar, a, va);
        run(simd, b, vb);
        EXPECT_TRUE(bit_equal(a, b))
            << name << " differs from scalar on " << k::path_name(path) << " at n=" << n;
        EXPECT_TRUE(bit_equal(va, vb))
            << name << " aux state differs on " << k::path_name(path) << " at n=" << n;
      };

      check("add", [&](const k::KernelTable& t, auto& y, auto&) {
        t.add(y.data(), x.data(), n);
      });
      check("sub", [&](const k::KernelTable& t, auto& y, auto&) {
        t.sub(y.data(), x.data(), n);
      });
      check("scale", [&](const k::KernelTable& t, auto& y, auto&) {
        t.scale(y.data(), 0.637f, n);
      });
      check("axpy", [&](const k::KernelTable& t, auto& y, auto&) {
        t.axpy(y.data(), x.data(), -1.75f, n);
      });
      check("scale_add", [&](const k::KernelTable& t, auto& y, auto&) {
        t.scale_add(y.data(), 0.923f, x.data(), n);
      });
      check("sgd_step", [&](const k::KernelTable& t, auto& y, auto&) {
        t.sgd_step(y.data(), x.data(), 0.01f, 1e-4f, n);
      });
      check("sgd_momentum_step", [&](const k::KernelTable& t, auto& y, auto& v) {
        t.sgd_momentum_step(y.data(), x.data(), v.data(), 0.01f, 0.9f, 1e-4f, n);
      });
      check("server_momentum_step", [&](const k::KernelTable& t, auto& y, auto& v) {
        t.server_momentum_step(y.data(), v.data(), x.data(), 0.9f, 0.5f, n);
      });
    }
  }
}

TEST(KernelEquivalence, AccumAndReduceKernels) {
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  for (k::KernelPath path : simd_paths()) {
    const auto& simd = k::table_for(path);
    for (std::size_t n : kSizes) {
      util::Rng rng(2000 + n);
      const std::vector<float> x = random_floats(n, rng);
      const std::vector<double> sum0 = [&] {
        std::vector<double> s(n);
        for (double& d : s) d = rng.normal(0.0, 10.0);
        return s;
      }();

      // weighted_accum: per-element double FMA-free update, bit-identical.
      std::vector<double> sa = sum0, sb = sum0;
      scalar.weighted_accum(sa.data(), x.data(), 2.5, n);
      simd.weighted_accum(sb.data(), x.data(), 2.5, n);
      EXPECT_TRUE(n == 0 || std::memcmp(sa.data(), sb.data(), n * sizeof(double)) == 0)
          << "weighted_accum differs at n=" << n;

      // mean_from_sums: elementwise, bit-identical.
      std::vector<float> ma(n), mb(n);
      scalar.mean_from_sums(ma.data(), sum0.data(), 1.0 / 3.0, n);
      simd.mean_from_sums(mb.data(), sum0.data(), 1.0 / 3.0, n);
      EXPECT_TRUE(bit_equal(ma, mb)) << "mean_from_sums differs at n=" << n;

      // max_abs: order-independent, exact.
      EXPECT_EQ(scalar.max_abs(x.data(), n), simd.max_abs(x.data(), n))
          << "max_abs differs at n=" << n;

      // sum_squares: multi-accumulator in SIMD paths — relative agreement
      // at the ~n·eps_double level, not bit equality.
      double qa = scalar.sum_squares(x.data(), n, 1.0);
      double qb = simd.sum_squares(x.data(), n, 1.0);
      double tol = static_cast<double>(n + 4) * 4.0 * std::numeric_limits<double>::epsilon();
      EXPECT_NEAR(qa, qb, std::abs(qa) * tol) << "sum_squares drifts at n=" << n;
    }
  }
}

/// Post-ReLU activations: about half exact zeros, at random positions.
std::vector<float> relu_like(std::size_t n, util::Rng& rng) {
  std::vector<float> v = random_floats(n, rng);
  for (float& f : v)
    if (rng.bernoulli(0.5)) f = 0.0f;
  return v;
}

/// Runs the three matmul kernels on scalar and `simd` from the same inputs
/// and `out` start value: matmul and transposed_matmul must agree bit for
/// bit, matmul_transposed (double dots) within 1 ULP.
void expect_matmul_family_matches(const k::KernelTable& simd, const char* path_name,
                                  std::size_t m, std::size_t kk, std::size_t n,
                                  const std::vector<float>& a, const std::vector<float>& at,
                                  const std::vector<float>& b, const std::vector<float>& bt,
                                  float out_start) {
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  const std::string where = std::string(path_name) + " at " + std::to_string(m) + "x" +
                            std::to_string(kk) + "x" + std::to_string(n);

  std::vector<float> oa(m * n, out_start), ob(m * n, out_start);
  scalar.matmul(a.data(), b.data(), oa.data(), m, kk, n);
  simd.matmul(a.data(), b.data(), ob.data(), m, kk, n);
  EXPECT_TRUE(bit_equal(oa, ob)) << "matmul differs on " << where;

  // transposed_matmul: at is [k, m].
  std::vector<float> ta(m * n, out_start), tb(m * n, out_start);
  scalar.transposed_matmul(at.data(), b.data(), ta.data(), kk, m, n);
  simd.transposed_matmul(at.data(), b.data(), tb.data(), kk, m, n);
  EXPECT_TRUE(bit_equal(ta, tb)) << "transposed_matmul differs on " << where;

  // matmul_transposed: bt is [n, k]; it assigns, so out_start is irrelevant.
  if (bt.empty()) return;
  std::vector<float> da(m * n, out_start), db(m * n, out_start);
  scalar.matmul_transposed(a.data(), bt.data(), da.data(), m, kk, n);
  simd.matmul_transposed(a.data(), bt.data(), db.data(), m, kk, n);
  for (std::size_t i = 0; i < da.size(); ++i)
    EXPECT_TRUE(within_one_ulp(da[i], db[i]))
        << "matmul_transposed element " << i << " beyond 1 ULP on " << where << ": " << da[i]
        << " vs " << db[i];
}

TEST(KernelEquivalence, MatmulFamily) {
  struct Shape {
    std::size_t m, kk, n;
  };
  const Shape shapes[] = {
      {1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {17, 33, 9}, {32, 64, 16},
      // The ads MLP's tiles at batch 16 (16 -> 32 -> 16 -> 1), the 512-row
      // eval batch, and batch tails that leave partial row blocks.
      {16, 16, 32}, {16, 32, 16}, {16, 16, 1}, {16, 1, 16}, {512, 16, 32}, {7, 16, 32},
      {5, 16, 24}};
  for (k::KernelPath path : simd_paths()) {
    const auto& simd = k::table_for(path);
    for (const Shape& s : shapes) {
      util::Rng rng(3000 + s.m * 100 + s.kk * 10 + s.n);
      const std::vector<float> a = relu_like(s.m * s.kk, rng);
      const std::vector<float> at = relu_like(s.kk * s.m, rng);
      const std::vector<float> b = random_floats(s.kk * s.n, rng);
      const std::vector<float> bt = random_floats(s.n * s.kk, rng);
      expect_matmul_family_matches(simd, k::path_name(path), s.m, s.kk, s.n, a, at, b, bt,
                                   0.0f);
    }
  }
}

// The a == 0 skip is what keeps 0 * inf and 0 * NaN out of `out`; the SIMD
// paths implement it as a select, which must be exact for any `out`,
// including one that starts at -0.0.
TEST(KernelEquivalence, MatmulZeroSkipIsExact) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  struct Shape {
    std::size_t m, kk, n;
  };
  const Shape shapes[] = {{16, 16, 32}, {16, 32, 16}, {16, 16, 1}, {7, 16, 32}, {5, 16, 24},
                          {17, 33, 9}};
  for (k::KernelPath path : simd_paths()) {
    const auto& simd = k::table_for(path);
    for (const Shape& s : shapes) {
      util::Rng rng(4000 + s.m * 100 + s.kk * 10 + s.n);
      std::vector<float> a = relu_like(s.m * s.kk, rng);
      std::vector<float> at = relu_like(s.kk * s.m, rng);
      std::vector<float> b = random_floats(s.kk * s.n, rng);
      // Every third k carries +inf, -inf and NaN in b; every a value that
      // multiplies them is an exact zero (+0.0 or -0.0).
      for (std::size_t kk = 0; kk < s.kk; kk += 3) {
        for (std::size_t j = 0; j < s.n; ++j) {
          const float poison[] = {kInf, -kInf, kNan};
          b[kk * s.n + j] = poison[j % 3];
        }
        for (std::size_t i = 0; i < s.m; ++i) {
          a[i * s.kk + kk] = (i % 2 == 0) ? 0.0f : -0.0f;
          at[kk * s.m + i] = (i % 2 == 0) ? -0.0f : 0.0f;
        }
      }
      // Output row 0 takes no update at all, so a -0.0 start must survive.
      for (std::size_t kk = 0; kk < s.kk; ++kk) a[kk] = at[kk * s.m] = 0.0f;
      // A NaN in a is not a zero: it must reach row 1 of `out`, as it does
      // in the scalar loop (k = 1 carries no inf in b).
      a[1 * s.kk + 1] = at[1 * s.m + 1] = kNan;
      for (float out_start : {0.0f, -0.0f})
        expect_matmul_family_matches(simd, k::path_name(path), s.m, s.kk, s.n, a, at, b, {},
                                     out_start);
    }
  }
}

TEST(KernelEquivalence, GatherScatterExact) {
  constexpr std::size_t kVocab = 50, kDim = 33;
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  util::Rng rng(77);
  const std::vector<float> table0 = random_floats(kVocab * kDim, rng);
  const std::vector<float> grad = random_floats(kDim, rng);
  // Out-of-range ids exercise the clamp; duplicates exercise accumulation.
  const std::vector<std::int32_t> tokens = {0, 5, 5, 49, -3, 1000, 17};

  for (k::KernelPath path : simd_paths()) {
    const auto& simd = k::table_for(path);
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, tokens.size()}) {
      std::vector<float> oa(kDim, 0.0f), ob(kDim, 0.0f);
      scalar.gather_mean_rows(table0.data(), kDim, tokens.data(), count, kVocab, oa.data());
      simd.gather_mean_rows(table0.data(), kDim, tokens.data(), count, kVocab, ob.data());
      EXPECT_TRUE(bit_equal(oa, ob)) << "gather_mean_rows differs at count=" << count;

      std::vector<float> ta = table0, tb = table0;
      scalar.scatter_add_rows(ta.data(), kDim, tokens.data(), count, kVocab, grad.data(),
                              0.25f);
      simd.scatter_add_rows(tb.data(), kDim, tokens.data(), count, kVocab, grad.data(), 0.25f);
      EXPECT_TRUE(bit_equal(ta, tb)) << "scatter_add_rows differs at count=" << count;
    }
  }
}

// Chaining sum_squares calls on the scalar path must reproduce one long
// accumulation exactly — optimizer::clip_gradients sweeps parameter tensors
// in sequence and relies on this to match the old single-loop numerics.
TEST(KernelEquivalence, ScalarSumSquaresChainsExactly) {
  const auto& scalar = k::table_for(k::KernelPath::kScalar);
  util::Rng rng(5);
  const std::vector<float> x = random_floats(1000, rng);
  double whole = scalar.sum_squares(x.data(), x.size(), 0.0);
  double chained = scalar.sum_squares(x.data(), 400, 0.0);
  chained = scalar.sum_squares(x.data() + 400, 600, chained);
  EXPECT_EQ(whole, chained);
}

class KernelDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_spec_ = k::requested_spec(); }
  void TearDown() override { k::set_path(saved_spec_); }
  std::string saved_spec_;
};

TEST_F(KernelDispatchTest, SetPathPinsAndReports) {
  k::set_path("scalar");
  EXPECT_EQ(k::active_path(), k::KernelPath::kScalar);
  EXPECT_EQ(k::requested_spec(), "scalar");
  EXPECT_EQ(&k::active(), &k::table_for(k::KernelPath::kScalar));

  k::set_path("auto");
  EXPECT_EQ(k::requested_spec(), "auto");
  EXPECT_TRUE(k::path_supported(k::active_path()));
}

TEST_F(KernelDispatchTest, UnknownSpecRejected) {
  EXPECT_THROW(k::set_path("avx512"), util::CheckError);
  EXPECT_THROW(k::set_path(""), util::CheckError);
}

TEST_F(KernelDispatchTest, UnsupportedPathRejected) {
  // At most one of avx2/neon exists in any one build; the other must throw.
  EXPECT_TRUE(!k::path_supported(k::KernelPath::kAvx2) ||
              !k::path_supported(k::KernelPath::kNeon));
  for (k::KernelPath p : {k::KernelPath::kAvx2, k::KernelPath::kNeon}) {
    if (!k::path_supported(p)) {
      EXPECT_THROW(k::table_for(p), util::CheckError);
      EXPECT_THROW(k::set_path(k::path_name(p)), util::CheckError);
    }
  }
  EXPECT_TRUE(k::path_supported(k::KernelPath::kScalar));
}

// The fused clip+noise kernel must be bit-invisible vs the classic two-pass
// clip-then-add-noise it replaced, within a kernel path.
TEST(ClipNoise, MatchesTwoPassReferenceBitForBit) {
  for (double stddev : {0.0, 0.75}) {
    for (double clip_norm : {0.5, 1e9}) {  // clipped and unclipped regimes
      util::Rng rng_fused(42), rng_ref(42);
      util::Rng data_rng(9);
      std::vector<float> fused = random_floats(513, data_rng);
      std::vector<float> ref = fused;

      double norm_fused =
          k::clip_noise(fused.data(), fused.size(), clip_norm, stddev, rng_fused);

      // Inline two-pass reference on the same (active) kernel path.
      const auto& t = k::active();
      double norm_ref = std::sqrt(t.sum_squares(ref.data(), ref.size(), 0.0));
      float scale = norm_ref > clip_norm ? static_cast<float>(clip_norm / norm_ref) : 1.0f;
      if (stddev == 0.0) {
        if (scale != 1.0f) t.scale(ref.data(), scale, ref.size());
      } else {
        std::vector<float> noise(ref.size());
        for (float& v : noise) v = static_cast<float>(rng_ref.normal(0.0, stddev));
        t.scale_add(ref.data(), scale, noise.data(), ref.size());
      }

      EXPECT_EQ(norm_fused, norm_ref);
      EXPECT_TRUE(bit_equal(fused, ref))
          << "clip_noise diverges from two-pass at stddev=" << stddev
          << " clip_norm=" << clip_norm;
      // Both rngs must have consumed the same draws.
      EXPECT_EQ(rng_fused.normal(), rng_ref.normal());
    }
  }
}

}  // namespace
}  // namespace flint
