// Device-cloud feature catalog (paper Figure 6): registers features with
// their source (device vs cloud), retention policy, payload size, transform
// location, and cacheability; the device runtime view serves feature values
// with caching and network-cost accounting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flint/feature/feature_cache.h"
#include "flint/util/rng.h"

namespace flint::feature {

/// Where a feature's authoritative values live.
enum class FeatureSource { kDevice, kCloud };

/// Where the raw -> model-ready transformation runs.
enum class TransformLocation { kDevice, kCloud };

/// Catalog entry for one feature.
struct FeatureDef {
  std::string name;
  FeatureSource source = FeatureSource::kDevice;
  std::size_t value_bytes = 64;    ///< per-entity payload
  int retention_days = 30;         ///< device-side retention policy
  bool cacheable = true;           ///< may cloud values be cached on device?
  TransformLocation transform = TransformLocation::kDevice;
};

/// Cloud-side metadata registry for features.
class FeatureCatalog {
 public:
  /// Register a feature; duplicate names are an error.
  void register_feature(FeatureDef def);

  const FeatureDef& feature(const std::string& name) const;
  std::size_t size() const { return defs_.size(); }

 private:
  std::map<std::string, FeatureDef> defs_;
};

/// Access accounting for resource forecasting.
struct FeatureAccessStats {
  std::uint64_t requests = 0;
  std::uint64_t device_reads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cloud_fetches = 0;
  std::uint64_t network_bytes = 0;
  double total_latency_s = 0.0;
};

/// The on-device runtime view of the catalog: serves feature values, pulling
/// cloud features over the (modeled) network and caching them when allowed.
/// Values are synthesized deterministically from (feature, entity) so that
/// repeated fetches are consistent — the catalog manages bytes and latency,
/// not semantics.
class DeviceFeatureRuntime {
 public:
  DeviceFeatureRuntime(const FeatureCatalog& catalog, std::uint64_t cache_bytes,
                       double cloud_rtt_s = 0.05, double bandwidth_mbps = 10.0);

  /// Fetch one entity's value for a feature. Returns the value; latency and
  /// traffic are recorded in stats().
  std::vector<float> fetch(const std::string& feature, std::uint64_t entity);

  const FeatureAccessStats& stats() const { return stats_; }
  const CacheStats& cache_stats() const { return cache_.stats(); }

 private:
  std::vector<float> synthesize(const FeatureDef& def, std::uint64_t entity) const;

  const FeatureCatalog* catalog_;
  FeatureCache cache_;
  double cloud_rtt_s_;
  double bandwidth_mbps_;
  FeatureAccessStats stats_;
};

}  // namespace flint::feature
