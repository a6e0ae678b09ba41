// Feature hashing (Weinberger et al., 2009): map string features to integer
// buckets through a hash function instead of a vocab file, trading storage
// for hash-collision-induced predictive power loss (paper §4.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flint::feature {

/// Stateless string -> bucket hasher (FNV-1a + splitmix finalizer).
class FeatureHasher {
 public:
  explicit FeatureHasher(std::size_t buckets, std::uint64_t salt = 0);

  std::size_t buckets() const { return buckets_; }

  /// Bucket of a token.
  std::size_t bucket(const std::string& token) const;

 private:
  std::uint64_t raw_hash(const std::string& token) const;
  std::size_t buckets_;
  std::uint64_t salt_;
};

/// Expected fraction of vocabulary tokens that share a bucket with at least
/// one other token (birthday-style collision estimate): 1 - (1-1/b)^(v-1).
double expected_collision_rate(std::size_t vocab_size, std::size_t buckets);

/// Measured collision rate: fraction of distinct tokens whose bucket is
/// shared with another distinct token.
double measured_collision_rate(const std::vector<std::string>& tokens,
                               const FeatureHasher& hasher);

}  // namespace flint::feature
