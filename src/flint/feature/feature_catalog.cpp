#include "flint/feature/feature_catalog.h"

#include "flint/util/check.h"

namespace flint::feature {

void FeatureCatalog::register_feature(FeatureDef def) {
  FLINT_CHECK_MSG(!def.name.empty(), "feature needs a name");
  FLINT_CHECK_MSG(defs_.count(def.name) == 0, "duplicate feature '" << def.name << "'");
  FLINT_CHECK(def.value_bytes > 0);
  defs_[def.name] = std::move(def);
}

const FeatureDef& FeatureCatalog::feature(const std::string& name) const {
  auto it = defs_.find(name);
  FLINT_CHECK_MSG(it != defs_.end(), "unknown feature '" << name << "'");
  return it->second;
}

DeviceFeatureRuntime::DeviceFeatureRuntime(const FeatureCatalog& catalog,
                                           std::uint64_t cache_bytes, double cloud_rtt_s,
                                           double bandwidth_mbps)
    : catalog_(&catalog),
      cache_(cache_bytes),
      cloud_rtt_s_(cloud_rtt_s),
      bandwidth_mbps_(bandwidth_mbps) {
  FLINT_CHECK(cloud_rtt_s >= 0.0 && bandwidth_mbps > 0.0);
}

std::vector<float> DeviceFeatureRuntime::synthesize(const FeatureDef& def,
                                                    std::uint64_t entity) const {
  // Deterministic pseudo-values: the same (feature, entity) always yields
  // the same vector, so cache-hit paths return identical data.
  std::size_t floats = std::max<std::size_t>(1, def.value_bytes / sizeof(float));
  std::vector<float> value(floats);
  std::uint64_t h = util::splitmix64(std::hash<std::string>{}(def.name) ^ entity);
  for (std::size_t i = 0; i < floats; ++i) {
    h = util::splitmix64(h);
    value[i] = static_cast<float>(static_cast<double>(h % 10000) / 10000.0 - 0.5);
  }
  return value;
}

std::vector<float> DeviceFeatureRuntime::fetch(const std::string& feature, std::uint64_t entity) {
  const FeatureDef& def = catalog_->feature(feature);
  ++stats_.requests;
  if (def.source == FeatureSource::kDevice) {
    ++stats_.device_reads;
    stats_.total_latency_s += 1e-4;  // local storage read
    return synthesize(def, entity);
  }
  std::string key = feature + "/" + std::to_string(entity);
  if (auto cached = cache_.get(key)) {
    ++stats_.cache_hits;
    stats_.total_latency_s += 1e-4;
    return *cached;
  }
  ++stats_.cloud_fetches;
  stats_.network_bytes += def.value_bytes;
  stats_.total_latency_s +=
      cloud_rtt_s_ + static_cast<double>(def.value_bytes) * 8.0 / (bandwidth_mbps_ * 1e6);
  std::vector<float> value = synthesize(def, entity);
  if (def.cacheable) cache_.put(key, value);
  return value;
}

}  // namespace flint::feature
