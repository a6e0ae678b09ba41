// Vocabulary files: string -> integer id mappings used during on-device data
// processing (paper §3.3 "Data Locality" and §4.1). High-cardinality vocabs
// can reach megabytes and must be pulled/cached by the device runtime; the
// alternative is feature hashing (feature_hashing.h).
#pragma once

#include <cstdint>
#include <utility>
#include <string>
#include <vector>

namespace flint::feature {

/// An immutable token -> id mapping. Id 0 is reserved for out-of-vocabulary
/// tokens; real tokens get ids 1..size.
class Vocab {
 public:
  Vocab() = default;

  /// Build from (token, frequency) pairs, keeping the `max_size` most
  /// frequent tokens (ties broken lexicographically for determinism).
  static Vocab build(const std::vector<std::pair<std::string, std::uint64_t>>& frequencies,
                     std::size_t max_size);

  std::size_t size() const { return tokens_.size(); }

  /// Asset size in bytes of the on-disk format, one token per line in id
  /// order. This is the number the device storage budget sees.
  std::size_t asset_bytes() const;

 private:
  std::vector<std::string> tokens_;  // index i -> id i+1
};

}  // namespace flint::feature
