#include "flint/util/rng.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

namespace flint::util {

namespace {

// mt19937_64 parameters (C++ [rand.predef]).
constexpr std::uint32_t kHalf = 156;  // m: the twist's far-word offset, n / 2
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

/// One twist step: the new value of a word from its old value, the old value
/// of the next word and the word m away (old or already new, as the
/// standard's in-order loop sees it).
inline std::uint64_t twisted(std::uint64_t word, std::uint64_t next, std::uint64_t far) {
  std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

/// The standard in-order twist loop, restricted to words [from, to).
void twist_range(std::uint64_t* x, std::uint32_t from, std::uint32_t to) {
  constexpr std::uint32_t n = Mt19937_64::kWords;
  std::uint32_t k = from;
  for (const std::uint32_t end = std::min(to, kHalf); k < end; ++k)
    x[k] = twisted(x[k], x[k + 1], x[k + kHalf]);
  for (const std::uint32_t end = std::min(to, n - 1); k < end; ++k)
    x[k] = twisted(x[k], x[k + 1], x[k - kHalf]);
  if (k < to) x[n - 1] = twisted(x[n - 1], x[0], x[n - 1 - kHalf]);
}

/// The standard seeding recurrence for words [from, to); needs word from - 1.
void seed_range(std::uint64_t* x, std::uint32_t from, std::uint32_t to) {
  for (std::uint32_t i = from; i < to; ++i)
    x[i] = kInitMultiplier * (x[i - 1] ^ (x[i - 1] >> 62)) + i;
}

}  // namespace

Mt19937_64& Mt19937_64::operator=(const Mt19937_64& other) noexcept {
  if (this == &other) return *this;
  std::memcpy(x_, other.x_, other.seeded_ * sizeof(x_[0]));
  pos_ = other.pos_;
  ready_ = other.ready_;
  seeded_ = other.seeded_;
  return *this;
}

void Mt19937_64::refill() {
  if (ready_ == kWords) {
    // A drained block (or a restored state at position 312): batch twist.
    twist_range(x_, 0, kWords);
    pos_ = 0;
    ready_ = kWords;
  } else if (pos_ < kHalf) {
    // Lazy first block: word pos_ twists from old words pos_, pos_ + 1 and
    // pos_ + 156, so seed just far enough and twist just that word.
    seed_range(x_, seeded_, pos_ + kHalf + 1);
    seeded_ = pos_ + kHalf + 1;
    x_[pos_] = twisted(x_[pos_], x_[pos_ + 1], x_[pos_ + kHalf]);
    ready_ = pos_ + 1;
  } else {
    // Draw 156: finish the seeding, then the rest of the first block.
    seed_range(x_, seeded_, kWords);
    seeded_ = kWords;
    twist_range(x_, kHalf, kWords);
    ready_ = kWords;
  }
}

std::string Mt19937_64::state_text() const {
  // The state std::mt19937_64 holds after the same draws: the seeding words
  // at position 312 before the first draw, the first block fully twisted
  // after it. A lazy state completes both on a copy.
  std::uint64_t x[kWords];
  std::memcpy(x, x_, seeded_ * sizeof(x[0]));
  std::uint32_t pos = pos_;
  if (ready_ < kWords) {
    seed_range(x, seeded_, kWords);
    if (pos == 0)
      pos = kWords;
    else
      twist_range(x, pos, kWords);
  }
  std::string out;
  out.reserve(kWords * 21 + 4);
  char buf[24];
  for (std::uint32_t i = 0; i <= kWords; ++i) {
    if (i > 0) out.push_back(' ');
    std::uint64_t v = i < kWords ? x[i] : pos;
    char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    out.append(buf, end);
  }
  return out;
}

void Mt19937_64::set_state_text(const std::string& text) {
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
  };
  std::uint64_t words[kWords + 1];
  std::uint32_t count = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  for (;;) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) break;
    FLINT_CHECK_MSG(count <= kWords, "invalid mt19937_64 state: more than "
                                         << kWords + 1 << " numbers");
    auto [next, ec] = std::from_chars(p, end, words[count]);
    FLINT_CHECK_MSG(ec == std::errc() && (next == end || is_space(*next)),
                    "invalid mt19937_64 state: number " << count
                                                        << " is not an unsigned 64-bit decimal");
    p = next;
    ++count;
  }
  FLINT_CHECK_MSG(count == kWords + 1, "invalid mt19937_64 state: " << count << " numbers, want "
                                                                    << kWords + 1);
  FLINT_CHECK_MSG(words[kWords] <= kWords,
                  "invalid mt19937_64 state: position " << words[kWords] << " above " << kWords);
  std::memcpy(x_, words, sizeof(x_));
  pos_ = static_cast<std::uint32_t>(words[kWords]);
  ready_ = kWords;
  seeded_ = kWords;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  FLINT_CHECK_MSG(lo <= hi, "uniform_int bounds inverted: " << lo << " > " << hi);
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Rng::uniform(double lo, double hi) {
  FLINT_CHECK(lo <= hi);
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

bool Rng::bernoulli(double p) {
  FLINT_CHECK_PROB(p);
  std::bernoulli_distribution d(p);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  std::lognormal_distribution<double> d(mu, sigma);
  return d(engine_);
}

double Rng::exponential(double rate) {
  FLINT_CHECK_FINITE(rate);
  FLINT_CHECK_GT(rate, 0.0);
  std::exponential_distribution<double> d(rate);
  return d(engine_);
}

double Rng::pareto(double x_min, double alpha) {
  FLINT_CHECK_GT(x_min, 0.0);
  FLINT_CHECK_GT(alpha, 0.0);
  double u = uniform(0.0, 1.0);
  // Guard against u == 0 which would yield infinity.
  if (u <= 0.0) u = std::numeric_limits<double>::min();
  return x_min * std::pow(u, -1.0 / alpha);
}

double Rng::gamma(double shape, double scale) {
  FLINT_CHECK_GT(shape, 0.0);
  FLINT_CHECK_GT(scale, 0.0);
  std::gamma_distribution<double> d(shape, scale);
  return d(engine_);
}

namespace {

/// Uniform in [0, 1) built from the engine's raw 64-bit output (53 mantissa
/// bits). mt19937_64's output sequence is fully specified by the standard, so
/// samplers built on this helper draw identically on every implementation —
/// unlike std::*_distribution, whose algorithms are implementation-defined.
double canonical_u01(Mt19937_64& engine) {
  return static_cast<double>(engine() >> 11) * 0x1.0p-53;
}

/// Inversion by sequential search (Devroye): one uniform, multiplicative
/// pmf recurrence. Exact and fast for small means.
std::int64_t poisson_inversion(Mt19937_64& engine, double mean) {
  double u = canonical_u01(engine);
  double p = std::exp(-mean);
  double cum = p;
  std::int64_t k = 0;
  // Hard iteration cap: P(K > mean + 40*sqrt(mean) + 64) is negligible, and
  // the cap keeps a pathological float state from looping forever.
  auto cap = static_cast<std::int64_t>(mean + 40.0 * std::sqrt(mean) + 64.0);
  while (u > cum && k < cap) {
    ++k;
    p *= mean / static_cast<double>(k);
    cum += p;
  }
  return k;
}

/// Hormann's PTRS transformed-rejection sampler for large means. Uses only
/// canonical_u01 draws plus libm, so the draw *sequence* is portable.
std::int64_t poisson_ptrs(Mt19937_64& engine, double mean) {
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  const double log_mean = std::log(mean);
  for (;;) {
    double u = canonical_u01(engine) - 0.5;
    double v = canonical_u01(engine);
    double us = 0.5 - std::abs(u);
    double kf = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::int64_t>(kf);
    if (kf < 0.0 || (us < 0.013 && v > us)) continue;
    double k = kf;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * log_mean - mean - std::lgamma(k + 1.0))
      return static_cast<std::int64_t>(kf);
  }
}

}  // namespace

std::int64_t Rng::poisson(double mean) {
  FLINT_CHECK_FINITE(mean);
  FLINT_CHECK_GE(mean, 0.0);
  // fpclassify makes the "exactly zero, not merely small" intent explicit:
  // tiny positive means are valid Poisson parameters.
  if (std::fpclassify(mean) == FP_ZERO) return 0;
  // Portable sampler instead of std::poisson_distribution: the standard
  // leaves that algorithm implementation-defined, so libstdc++ and libc++
  // disagree draw-for-draw — which would make every session trace (and thus
  // every simulated result) depend on the standard library, breaking the
  // repo-wide contract that results are a pure function of the seed.
  if (mean < 10.0) return poisson_inversion(engine_, mean);
  return poisson_ptrs(engine_, mean);
}

std::size_t Rng::zipf(std::size_t n, double s) { return ZipfTable(n, s).sample(*this); }

std::vector<double> Rng::dirichlet(std::size_t k, double alpha) {
  return dirichlet(std::vector<double>(k, alpha));
}

std::vector<double> Rng::dirichlet(const std::vector<double>& alphas) {
  FLINT_CHECK(!alphas.empty());
  std::vector<double> out(alphas.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    FLINT_CHECK(alphas[i] > 0.0);
    out[i] = gamma(alphas[i], 1.0);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Numerically degenerate draw (possible for tiny alphas): fall back to
    // a one-hot on a uniform category, the limiting Dirichlet behaviour.
    std::fill(out.begin(), out.end(), 0.0);
    out[static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(out.size()) - 1))] = 1.0;
    return out;
  }
  for (double& v : out) v /= sum;
  return out;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  FLINT_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    FLINT_CHECK(w >= 0.0);
    total += w;
  }
  FLINT_CHECK_MSG(total > 0.0, "categorical weights sum to zero");
  double u = uniform(0.0, total);
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u <= acc) return i;
  }
  return weights.size() - 1;
}

CategoricalTable::CategoricalTable(const std::vector<double>& weights) {
  FLINT_CHECK(!weights.empty());
  cumulative_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    FLINT_CHECK(w >= 0.0);
    acc += w;
    cumulative_.push_back(acc);
  }
  FLINT_CHECK_MSG(acc > 0.0, "categorical weights sum to zero");
}

std::size_t CategoricalTable::sample(Rng& rng) const {
  double u = rng.uniform(0.0, cumulative_.back());
  // First index whose cumulative weight reaches u (the weights are
  // non-negative, so the sums are sorted); the last index if rounding put u
  // above them all.
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  if (it == cumulative_.end()) return cumulative_.size() - 1;
  return static_cast<std::size_t>(it - cumulative_.begin());
}

ZipfTable::ZipfTable(std::size_t n, double s) : n_(n) {
  FLINT_CHECK_GT(n, std::size_t{0});
  FLINT_CHECK_FINITE(s);
  // Near-zero exponents make every 1/i^s weight ~1; sample() draws the exact
  // uniform instead of accumulating n pow() round-off errors.
  if (n == 1 || std::abs(s) < 1e-12) return;
  std::vector<double> weights(n);
  for (std::size_t i = 1; i <= n; ++i) weights[i - 1] = 1.0 / std::pow(static_cast<double>(i), s);
  table_.emplace(weights);
}

std::size_t ZipfTable::sample(Rng& rng) const {
  if (n_ == 1) return 0;
  if (!table_)
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n_) - 1));
  return table_->sample(rng);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng derive_stream(std::uint64_t seed, std::uint64_t stream, std::uint64_t substream) {
  // Chained splitmix64 over the key components; each link fully mixes, so
  // adjacent (stream, substream) pairs land on decorrelated seeds.
  std::uint64_t s = splitmix64(seed);
  s = splitmix64(s ^ stream);
  s = splitmix64(s ^ substream);
  return Rng(s);
}

}  // namespace flint::util
