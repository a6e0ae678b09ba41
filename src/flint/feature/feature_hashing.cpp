#include "flint/feature/feature_hashing.h"

#include <cmath>
#include <unordered_map>

#include "flint/util/check.h"
#include "flint/util/rng.h"

namespace flint::feature {

FeatureHasher::FeatureHasher(std::size_t buckets, std::uint64_t salt)
    : buckets_(buckets), salt_(salt) {
  FLINT_CHECK(buckets > 0);
}

std::uint64_t FeatureHasher::raw_hash(const std::string& token) const {
  // FNV-1a over the bytes, then a splitmix finalizer for avalanche.
  std::uint64_t h = 14695981039346656037ULL ^ salt_;
  for (unsigned char c : token) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return util::splitmix64(h);
}

std::size_t FeatureHasher::bucket(const std::string& token) const {
  return static_cast<std::size_t>(raw_hash(token) % buckets_);
}

double expected_collision_rate(std::size_t vocab_size, std::size_t buckets) {
  FLINT_CHECK(buckets > 0);
  if (vocab_size <= 1) return 0.0;
  double miss = std::pow(1.0 - 1.0 / static_cast<double>(buckets),
                         static_cast<double>(vocab_size - 1));
  return 1.0 - miss;
}

double measured_collision_rate(const std::vector<std::string>& tokens,
                               const FeatureHasher& hasher) {
  FLINT_CHECK(!tokens.empty());
  std::unordered_map<std::size_t, std::size_t> bucket_counts;
  for (const auto& t : tokens) ++bucket_counts[hasher.bucket(t)];
  std::size_t collided = 0;
  for (const auto& t : tokens)
    if (bucket_counts[hasher.bucket(t)] > 1) ++collided;
  return static_cast<double>(collided) / static_cast<double>(tokens.size());
}

}  // namespace flint::feature
