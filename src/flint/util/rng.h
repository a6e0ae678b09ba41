// Deterministic random number generation for FLINT.
//
// Every stochastic component in the platform takes an explicit Rng& so that
// simulations are reproducible bit-for-bit from a seed. Independent streams
// (per trial, per task, per client) come from derive_stream(), a pure
// function of a key, so no stream depends on another's draws or on global
// state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "flint/util/check.h"

namespace flint::util {

/// mt19937_64 whose outputs equal std::mt19937_64's for every seed and draw
/// count, and whose state text equals libstdc++'s `os << std::mt19937_64`
/// byte for byte. The difference is the cost of a fresh engine: seeding is
/// lazy. Draw k (k < 156) of the first block needs only seeding words up to
/// 156 + k and twists just word k, so a stream that draws a handful of values
/// pays ~160 serial seeding steps instead of 312 plus a 312-word twist. At
/// draw 156 the seeding completes and the rest of the first block is twisted
/// in one batch; every later block uses the standard batch twist, so long
/// streams cost what std::mt19937_64 costs per draw.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::uint32_t kWords = 312;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) noexcept { x_[0] = seed; }
  // Copies move only the words computed so far: the rest of a lazy state is
  // never read before it is written.
  Mt19937_64(const Mt19937_64& other) noexcept { *this = other; }
  Mt19937_64& operator=(const Mt19937_64& other) noexcept;

  result_type operator()() {
    if (pos_ >= ready_) refill();
    result_type z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// libstdc++'s mt19937_64 text: the 312 state words, then the position,
  /// in decimal, separated by single spaces.
  std::string state_text() const;

  /// Restore a state written by state_text() (or by libstdc++'s `<<`).
  /// Accepts exactly 312 words plus a position in [0, 312], separated by
  /// whitespace; throws CheckError on anything else.
  void set_state_text(const std::string& text);

 private:
  /// Makes word pos_ drawable: one lazy step of the first block, the batch
  /// completion of the first block at draw 156, or a full batch twist.
  void refill();

  std::uint64_t x_[kWords];
  std::uint32_t pos_ = 0;     ///< next word to temper and return
  std::uint32_t ready_ = 0;   ///< words [0, ready_) are twisted; < 312 only while lazy
  std::uint32_t seeded_ = 1;  ///< words [0, seeded_) are computed (seeded or twisted)
};

/// Deterministic pseudo-random source: FLINT's Mt19937_64 with the
/// distributions FLINT needs (heavy tails, Dirichlet, Zipf, categorical).
/// Its draws equal those of a std::mt19937_64-based source with the same
/// seed; a fresh stream costs only the seeding its draws reach.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed), seed_(seed) {}

  /// The seed this stream was created with.
  std::uint64_t seed() const { return seed_; }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Bernoulli draw with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Normal draw.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal draw with parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Exponential draw with the given rate (lambda > 0).
  double exponential(double rate);

  /// Pareto draw: x_min * U^{-1/alpha}; heavy-tailed for small alpha.
  double pareto(double x_min, double alpha);

  /// Gamma draw with the given shape (k > 0) and scale.
  double gamma(double shape, double scale = 1.0);

  /// Poisson draw with the given mean.
  std::int64_t poisson(double mean);

  /// Zipf-distributed rank in [0, n) with exponent s >= 0; s = 0 degenerates
  /// to uniform. Builds a ZipfTable for the one draw (O(n)); callers drawing
  /// repeatedly from the same (n, s) should keep a ZipfTable instead.
  std::size_t zipf(std::size_t n, double s);

  /// Dirichlet draw over k categories with symmetric concentration alpha.
  std::vector<double> dirichlet(std::size_t k, double alpha);

  /// Dirichlet draw with per-category concentrations.
  std::vector<double> dirichlet(const std::vector<double>& alphas);

  /// Index drawn from a discrete distribution proportional to weights.
  /// Callers drawing repeatedly from fixed weights should keep a
  /// CategoricalTable instead: same draws, O(log n) each.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Raw 64-bit draw (for hashing / seeding).
  std::uint64_t next_u64() { return engine_(); }

  /// Portable snapshot of the engine state (libstdc++'s mt19937_64 text) for
  /// checkpoint/resume; restore with deserialize_state(). The seed is not
  /// part of the snapshot — callers re-derive the stream and then overlay
  /// the state, so seed() stays meaningful after a resume.
  std::string serialize_state() const { return engine_.state_text(); }

  /// Restore engine state captured by serialize_state(). Throws CheckError
  /// if the string is not a valid mt19937_64 state.
  void deserialize_state(const std::string& state) { engine_.set_state_text(state); }

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
};

/// A discrete distribution proportional to fixed weights, as a precomputed
/// inverse CDF: the weights are validated and summed once, so each draw is
/// one uniform plus a binary search (O(log n)) instead of Rng::categorical's
/// O(n) re-sum and re-check. Draws equal Rng::categorical's over the same
/// weights exactly: the table sums them in the same order, draws the same
/// uniform(0, total), and finds the same first index whose cumulative
/// weight reaches it.
class CategoricalTable {
 public:
  /// Requires a non-empty vector of non-negative weights with a positive sum.
  explicit CategoricalTable(const std::vector<double>& weights);

  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

/// Zipf over ranks [0, n) with exponent s: a CategoricalTable over the
/// 1/i^s weights in rank order, so each draw equals the inverse-CDF linear
/// scan over the same weights. Near-zero exponents draw the exact uniform.
class ZipfTable {
 public:
  ZipfTable(std::size_t n, double s);

  std::size_t sample(Rng& rng) const;

 private:
  std::size_t n_;
  std::optional<CategoricalTable> table_;  ///< empty when draws are uniform (n == 1 or s ~ 0)
};

/// SplitMix64 hash step; useful for deriving per-entity seeds from ids.
std::uint64_t splitmix64(std::uint64_t x);

/// Counter-based stream derivation: a fresh Rng keyed by (seed, stream,
/// substream), independent of any engine state. The parallel runners use it
/// to give every simulated task its own decorrelated streams — the result
/// depends only on the key, never on which thread draws or in what order,
/// which is what makes `--threads N` change wall time and nothing else.
/// Cheap by construction: three splitmix64 steps, and the lazily seeded
/// engine then computes only the state words the stream's draws reach.
Rng derive_stream(std::uint64_t seed, std::uint64_t stream, std::uint64_t substream = 0);

}  // namespace flint::util
