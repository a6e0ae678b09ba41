// Byte-budgeted LRU cache for feature values on the device. The paper's
// feature catalog caches cloud-based features and processed feature values
// so "multiple applications can use overlapping features without duplicated
// work" (§3.3).
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "flint/obs/telemetry.h"

namespace flint::feature {

/// Cache statistics for resource accounting.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_used = 0;

  double hit_rate() const {
    auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// LRU cache of feature vectors, bounded by total payload bytes. Entries
/// larger than the whole budget are rejected (never cached).
class FeatureCache {
 public:
  explicit FeatureCache(std::uint64_t capacity_bytes);

  /// Value for key, refreshing recency. nullopt on miss.
  std::optional<std::vector<float>> get(const std::string& key);

  /// Insert/overwrite; evicts LRU entries until the value fits.
  void put(const std::string& key, std::vector<float> value);

  bool contains(const std::string& key) const { return index_.count(key) > 0; }
  std::size_t entry_count() const { return entries_.size(); }
  std::uint64_t capacity_bytes() const { return capacity_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string key;
    std::vector<float> value;
  };
  static std::uint64_t value_bytes(const std::vector<float>& v) {
    return v.size() * sizeof(float);
  }
  void evict_until_fits(std::uint64_t incoming);

  std::uint64_t capacity_;
  std::list<Entry> entries_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  CacheStats stats_;
  // Mirrored into the ambient telemetry so live hit rate shows up next to
  // the simulator series, not just in end-of-run CacheStats.
  obs::CachedCounter hits_counter_;
  obs::CachedCounter misses_counter_;
  obs::CachedCounter evictions_counter_;
};

}  // namespace flint::feature
