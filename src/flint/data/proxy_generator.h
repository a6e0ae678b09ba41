// Proxy data generator and data catalog (paper §3.3).
//
// The generator turns a centralized dataset into a per-device federated
// proxy, computes FL heterogeneity metadata, and registers the result in the
// data catalog under a version. For populations too large to materialize it
// generates client-quantity profiles (record counts only), which is all the
// system-metric simulations need.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flint/data/client_dataset.h"
#include "flint/data/dataset_stats.h"
#include "flint/data/partitioner.h"
#include "flint/util/rng.h"

namespace flint::data {

/// How a proxy is partitioned into clients.
enum class PartitionStrategy {
  kNatural,    ///< group by an existing obfuscated client identifier
  kDirichlet,  ///< synthetic label/quantity skew (identifier discarded)
};

/// Proxy generation request.
struct ProxyConfig {
  std::string name = "proxy";
  PartitionStrategy strategy = PartitionStrategy::kNatural;
  DirichletPartitionConfig dirichlet;   ///< used by kDirichlet
  double client_downsample = 1.0;       ///< client-level keep fraction
  int lookback_days = 0;                ///< carried into the metadata
};

/// A versioned catalog entry: the proxy plus its FL metadata.
struct ProxyEntry {
  int version = 1;
  ProxyConfig config;
  std::shared_ptr<const FederatedDataset> dataset;
  DatasetStats stats;
};

/// Version numbering for proxy datasets ("the tool stores it back to the
/// data catalog, adding FL-specific metadata"): each name gets versions
/// 1, 2, ... so modelers can sweep heterogeneity under one name.
class DataCatalog {
 public:
  /// Register a new version of `name`; returns the assigned version number.
  int add_version(const std::string& name) { return ++versions_[name]; }

 private:
  std::map<std::string, int> versions_;
};

/// Generates federated proxies from centralized records and registers them.
class ProxyGenerator {
 public:
  explicit ProxyGenerator(DataCatalog& catalog) : catalog_(&catalog) {}

  /// Build a proxy according to `config`. For kNatural, `client_key_of(i)`
  /// must return record i's client field; for kDirichlet it may be null.
  /// Returns the registered entry (dataset + stats + version).
  ProxyEntry generate(const std::vector<ml::Example>& records, const ProxyConfig& config,
                      const std::function<std::uint64_t(std::size_t)>& client_key_of,
                      util::Rng& rng);

 private:
  DataCatalog* catalog_;
};

/// Parameters for a counts-only client quantity profile (heavy-tailed
/// lognormal body with an optional Pareto superuser tail and a hard cap).
struct QuantityProfileConfig {
  std::uint64_t population = 1000;
  double mean_records = 100.0;
  double std_records = 300.0;
  std::uint32_t max_records = 100000;  ///< hard cap (paper's observed max)
  double superuser_fraction = 0.0;     ///< fraction drawn from the Pareto tail
  double superuser_alpha = 1.2;        ///< Pareto exponent of the tail
};

/// Per-client record counts (each >= 1) under the profile. Deterministic
/// given the rng state; memory is O(population) 32-bit counts so Table 2's
/// 16.4M-client dataset fits in ~66 MB.
std::vector<std::uint32_t> sample_quantity_profile(const QuantityProfileConfig& config,
                                                   util::Rng& rng);

}  // namespace flint::data
