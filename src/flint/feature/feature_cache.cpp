#include "flint/feature/feature_cache.h"

#include "flint/util/check.h"

namespace flint::feature {

FeatureCache::FeatureCache(std::uint64_t capacity_bytes) : capacity_(capacity_bytes) {
  FLINT_CHECK(capacity_bytes > 0);
}

std::optional<std::vector<float>> FeatureCache::get(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (auto* c = misses_counter_.resolve("feature.cache.misses")) c->add(1);
    return std::nullopt;
  }
  ++stats_.hits;
  if (auto* c = hits_counter_.resolve("feature.cache.hits")) c->add(1);
  entries_.splice(entries_.begin(), entries_, it->second);  // refresh recency
  return it->second->value;
}

void FeatureCache::put(const std::string& key, std::vector<float> value) {
  std::uint64_t incoming = value_bytes(value);
  if (incoming > capacity_) return;  // can never fit; don't thrash the cache
  auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.bytes_used -= value_bytes(it->second->value);
    entries_.erase(it->second);
    index_.erase(it);
  }
  evict_until_fits(incoming);
  entries_.push_front({key, std::move(value)});
  index_[key] = entries_.begin();
  stats_.bytes_used += incoming;
}

void FeatureCache::evict_until_fits(std::uint64_t incoming) {
  while (stats_.bytes_used + incoming > capacity_ && !entries_.empty()) {
    auto& victim = entries_.back();
    stats_.bytes_used -= value_bytes(victim.value);
    index_.erase(victim.key);
    entries_.pop_back();
    ++stats_.evictions;
    if (auto* c = evictions_counter_.resolve("feature.cache.evictions")) c->add(1);
  }
}

}  // namespace flint::feature
