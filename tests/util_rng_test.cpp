#include "flint/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <sstream>

#include "flint/util/stats.h"

namespace flint::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntInvertedBoundsThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(3, 2), CheckError);
}

TEST(Rng, UniformRealBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BernoulliProbability) {
  Rng rng(11);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliRejectsBadProbability) {
  Rng rng(11);
  EXPECT_THROW(rng.bernoulli(-0.1), CheckError);
  EXPECT_THROW(rng.bernoulli(1.1), CheckError);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, LognormalMatchesMomentFormula) {
  Rng rng(17);
  LognormalParams p = lognormal_from_moments(100.0, 150.0);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.lognormal(p.mu, p.sigma));
  EXPECT_NEAR(s.mean(), 100.0, 5.0);
  EXPECT_NEAR(s.stddev(), 150.0, 15.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(Rng, ParetoLowerBound) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, ParetoHeavierTailForSmallerAlpha) {
  Rng rng(23);
  double p99_heavy = 0.0, p99_light = 0.0;
  std::vector<double> heavy, light;
  for (int i = 0; i < 20000; ++i) {
    heavy.push_back(rng.pareto(1.0, 0.9));
    light.push_back(rng.pareto(1.0, 3.0));
  }
  p99_heavy = percentile(heavy, 99.0);
  p99_light = percentile(light, 99.0);
  EXPECT_GT(p99_heavy, p99_light * 3.0);
}

TEST(Rng, PoissonMean) {
  Rng rng(29);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(static_cast<double>(rng.poisson(4.0)));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, PoissonLargeMeanMatchesMoments) {
  // Large means route through the PTRS rejection sampler rather than
  // inversion; mean and variance must both track lambda (for Poisson they
  // are equal), or the transformed-rejection constants are off.
  for (double lambda : {15.0, 60.0, 400.0}) {
    Rng rng(41);
    RunningStats s;
    for (int i = 0; i < 30000; ++i) s.add(static_cast<double>(rng.poisson(lambda)));
    EXPECT_NEAR(s.mean(), lambda, 0.02 * lambda) << "lambda " << lambda;
    EXPECT_NEAR(s.variance(), lambda, 0.10 * lambda) << "lambda " << lambda;
  }
}

TEST(Rng, PoissonIsDeterministicGivenSeedInBothRegimes) {
  // The whole reason the sampler is hand-rolled: identical draws from
  // identical engine state, on every platform and standard library. Covers
  // the inversion regime (mean < 10) and the PTRS regime.
  for (double lambda : {0.3, 4.0, 9.9, 10.1, 250.0}) {
    Rng a(77);
    Rng b(77);
    for (int i = 0; i < 200; ++i)
      ASSERT_EQ(a.poisson(lambda), b.poisson(lambda)) << "lambda " << lambda << " draw " << i;
  }
}

TEST(Rng, ZipfInRangeAndSkewed) {
  Rng rng(31);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    std::size_t v = rng.zipf(10, 1.2);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Rank 0 should dominate rank 9 heavily.
  EXPECT_GT(counts[0], counts[9] * 5);
}

TEST(Rng, ZipfZeroExponentIsUniform) {
  Rng rng(31);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.zipf(4, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(37);
  for (double alpha : {0.1, 1.0, 10.0}) {
    auto v = rng.dirichlet(8, alpha);
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletSmallAlphaIsSkewed) {
  Rng rng(41);
  double max_small = 0.0, max_large = 0.0;
  for (int i = 0; i < 200; ++i) {
    auto s = rng.dirichlet(10, 0.05);
    auto l = rng.dirichlet(10, 50.0);
    max_small += *std::max_element(s.begin(), s.end());
    max_large += *std::max_element(l.begin(), l.end());
  }
  EXPECT_GT(max_small / 200.0, 0.7);   // near one-hot
  EXPECT_LT(max_large / 200.0, 0.25);  // near uniform
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(43);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, CategoricalRejectsZeroTotal) {
  Rng rng(43);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.categorical(w), CheckError);
}

// --- CategoricalTable: the precomputed inverse CDF against Rng::categorical.

TEST(CategoricalTable, MatchesCategoricalDrawForDraw) {
  const std::vector<std::vector<double>> cases = {
      {1.0},
      {0.0, 2.5},
      {1.0, 0.0, 3.0},
      {0.75, 0.15, 0.10},
      {0.0, 0.0, 1e-300, 4.0, 0.0},
      {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0, 9.0, 7.0, 9.0, 0.0},
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    CategoricalTable table(cases[k]);
    for (std::uint64_t seed : {1ull, 42ull, 977ull, 0xdeadbeefull}) {
      Rng a(seed), b(seed);
      for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(table.sample(b), a.categorical(cases[k])) << "case " << k << " seed " << seed
                                                            << " draw " << i;
    }
  }
}

TEST(CategoricalTable, DrawOnACumulativeBoundaryPicksTheFirstIndexReachingIt) {
  // Weights whose first positive cumulative sum is exactly a uniform(0, 1)
  // draw: both samplers must return the first index whose sum reaches it,
  // past a leading zero weight and before a trailing one.
  for (std::uint64_t seed : {3ull, 5ull, 8ull, 13ull}) {
    // Draws in [0.5, 1) keep 1 - u exact, so the weights sum to exactly 1.
    Rng peek(seed);
    int skipped = 0;
    double u = peek.uniform(0.0, 1.0);
    for (; u < 0.5; ++skipped) u = peek.uniform(0.0, 1.0);
    for (const std::vector<double>& w : {std::vector<double>{u, 1.0 - u},
                                         std::vector<double>{u, 0.0, 1.0 - u},
                                         std::vector<double>{0.0, u, 1.0 - u}}) {
      ASSERT_EQ(std::accumulate(w.begin(), w.end(), 0.0), 1.0);
      const std::size_t boundary = w[0] == 0.0 ? 1 : 0;
      Rng a(seed), b(seed);
      for (int i = 0; i < skipped; ++i) {
        a.uniform(0.0, 1.0);
        b.uniform(0.0, 1.0);
      }
      EXPECT_EQ(a.categorical(w), boundary) << "seed " << seed;
      EXPECT_EQ(CategoricalTable(w).sample(b), boundary) << "seed " << seed;
    }
  }
}

TEST(CategoricalTable, RejectsEmptyNegativeAndZeroTotalWeights) {
  EXPECT_THROW(CategoricalTable(std::vector<double>{}), CheckError);
  EXPECT_THROW(CategoricalTable(std::vector<double>{1.0, -0.5}), CheckError);
  EXPECT_THROW(CategoricalTable(std::vector<double>{0.0, 0.0}), CheckError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SerializeStateRoundTrip) {
  Rng a(991);
  for (int i = 0; i < 37; ++i) a.next_u64();  // advance into the stream
  std::string state = a.serialize_state();
  Rng b(12345);  // different seed: the snapshot overlays engine state only
  b.deserialize_state(state);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DeserializeGarbageStateThrows) {
  // The parser accepts exactly 312 unsigned 64-bit words plus a position in
  // [0, 312]; everything else is rejected before any state is overwritten.
  Rng r(1);
  const std::string good = r.serialize_state();
  const std::string words = good.substr(0, good.rfind(' ') + 1);
  std::string hundred_words;
  for (int i = 0; i < 100; ++i) hundred_words += "12345 ";
  std::string non_numeric = good;
  non_numeric.replace(0, non_numeric.find(' '), "12x45");
  for (const std::string& bad :
       {std::string("not a valid engine state"), std::string(), hundred_words, non_numeric,
        words + "313", words + "-1", good + " 7", words + "18446744073709551616"}) {
    EXPECT_THROW(r.deserialize_state(bad), CheckError) << bad.substr(0, 40);
  }
  Rng fresh(1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(r.next_u64(), fresh.next_u64());
  // The accepted edges: positions 0 and 312.
  EXPECT_NO_THROW(r.deserialize_state(words + "0"));
  EXPECT_NO_THROW(r.deserialize_state(words + "312"));
}

// --- Engine equivalence: std::mt19937_64 is the reference oracle. ---------

std::vector<std::uint64_t> equivalence_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}};
  for (std::uint64_t i = 0; seeds.size() < 64; ++i) seeds.push_back(splitmix64(i));
  return seeds;
}

std::string std_state_text(const std::mt19937_64& engine) {
  std::ostringstream os;
  os << engine;
  return os.str();
}

TEST(RngEngine, FirstThousandDrawsMatchStdForSixtyFourSeeds) {
  // 1,000 draws cross three 312-word blocks: the lazy first block, its batch
  // completion at draw 156, and two standard batch twists.
  for (std::uint64_t seed : equivalence_seeds()) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1000; ++i)
      ASSERT_EQ(rng.next_u64(), ref()) << "seed " << seed << " draw " << i;
  }
}

TEST(RngEngine, StateTextEqualsStdAtBlockBoundaries) {
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{991}, ~std::uint64_t{0}}) {
    for (int draws : {0, 1, 155, 156, 157, 311, 312, 313, 1000}) {
      Rng rng(seed);
      std::mt19937_64 ref(seed);
      for (int i = 0; i < draws; ++i) {
        rng.next_u64();
        ref();
      }
      ASSERT_EQ(rng.serialize_state(), std_state_text(ref))
          << "seed " << seed << " draws " << draws;
    }
  }
}

TEST(RngEngine, RestoresStdStateWrittenMidBlock) {
  std::mt19937_64 ref(4242);
  for (int i = 0; i < 200; ++i) ref();
  Rng rng(1);  // seed irrelevant: the state overlays it
  rng.deserialize_state(std_state_text(ref));
  for (int i = 0; i < 700; ++i) ASSERT_EQ(rng.next_u64(), ref()) << "draw " << i;
}

TEST(RngEngine, CopyMidLazyStateContinuesIdentically) {
  for (int draws : {0, 3, 155}) {
    Rng a(77);
    for (int i = 0; i < draws; ++i) a.next_u64();
    Rng b = a;
    Rng c(5);
    c = a;
    std::mt19937_64 ref(77);
    for (int i = 0; i < draws; ++i) ref();
    for (int i = 0; i < 400; ++i) {
      std::uint64_t want = ref();
      ASSERT_EQ(a.next_u64(), want) << "draws " << draws << " +" << i;
      ASSERT_EQ(b.next_u64(), want) << "draws " << draws << " +" << i;
      ASSERT_EQ(c.next_u64(), want) << "draws " << draws << " +" << i;
    }
  }
}

TEST(RngEngine, SizeStaysNearStd) {
  EXPECT_LE(sizeof(Rng), sizeof(std::mt19937_64) + 32);
}

// --- Zipf: the table sampler against the linear inverse-CDF scan. ---------

/// The O(n)-per-draw sampler ZipfTable replaced, kept as the oracle.
std::size_t zipf_linear_scan(Rng& rng, std::size_t n, double s) {
  if (n == 1) return 0;
  if (std::abs(s) < 1e-12)
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  double h = 0.0;
  for (std::size_t i = 1; i <= n; ++i) h += 1.0 / std::pow(static_cast<double>(i), s);
  double u = rng.uniform(0.0, h);
  double acc = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), s);
    if (u <= acc) return i - 1;
  }
  return n - 1;
}

TEST(ZipfTable, MatchesLinearScanDrawForDraw) {
  for (std::size_t n : {1, 2, 10, 500}) {
    for (double s : {0.0, 1e-13, 0.5, 1.1, 3.0}) {
      ZipfTable table(n, s);
      Rng a(101), b(101), c(101);
      for (int i = 0; i < 10000; ++i) {
        std::size_t want = zipf_linear_scan(a, n, s);
        ASSERT_EQ(table.sample(b), want) << "n " << n << " s " << s << " draw " << i;
        if (i < 200) {
          ASSERT_EQ(c.zipf(n, s), want) << "n " << n << " s " << s << " draw " << i;
        }
      }
    }
  }
}

TEST(ZipfTable, RejectsEmptyRangeAndNonFiniteExponent) {
  EXPECT_THROW(ZipfTable(0, 1.0), CheckError);
  EXPECT_THROW(ZipfTable(10, std::nan("")), CheckError);
}

TEST(Splitmix, AvalanchesOnAdjacentInputs) {
  auto a = splitmix64(1), b = splitmix64(2);
  EXPECT_NE(a, b);
  int differing_bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(differing_bits, 10);
}

}  // namespace
}  // namespace flint::util
