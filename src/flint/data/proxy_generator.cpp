#include "flint/data/proxy_generator.h"

#include <algorithm>
#include <cmath>

#include "flint/util/check.h"
#include "flint/util/stats.h"

namespace flint::data {

ProxyEntry ProxyGenerator::generate(const std::vector<ml::Example>& records,
                                    const ProxyConfig& config,
                                    const std::function<std::uint64_t(std::size_t)>& client_key_of,
                                    util::Rng& rng) {
  FLINT_CHECK(!records.empty());
  FederatedDataset dataset;
  switch (config.strategy) {
    case PartitionStrategy::kNatural:
      FLINT_CHECK_MSG(client_key_of != nullptr,
                      "natural partitioning needs a client key extractor");
      dataset = partition_natural(records, client_key_of);
      break;
    case PartitionStrategy::kDirichlet:
      dataset = partition_dirichlet(records, config.dirichlet, rng);
      break;
  }
  if (config.client_downsample < 1.0)
    dataset = downsample_clients(dataset, config.client_downsample, rng);

  ProxyEntry entry;
  entry.config = config;
  entry.stats = compute_stats(dataset, config.name, config.lookback_days);
  entry.dataset = std::make_shared<FederatedDataset>(std::move(dataset));
  entry.version = catalog_->add_version(config.name);
  return entry;
}

std::vector<std::uint32_t> sample_quantity_profile(const QuantityProfileConfig& config,
                                                   util::Rng& rng) {
  FLINT_CHECK(config.population > 0);
  FLINT_CHECK(config.max_records >= 1);
  FLINT_CHECK(config.superuser_fraction >= 0.0 && config.superuser_fraction < 1.0);
  util::LognormalParams p = util::lognormal_from_moments(config.mean_records, config.std_records);
  std::vector<std::uint32_t> counts;
  counts.reserve(config.population);
  for (std::uint64_t i = 0; i < config.population; ++i) {
    double v;
    if (config.superuser_fraction > 0.0 && rng.bernoulli(config.superuser_fraction)) {
      // Superuser tail: Pareto starting at the lognormal's ~p95.
      double x_min = std::exp(p.mu + 1.64 * p.sigma);
      v = rng.pareto(std::max(1.0, x_min), config.superuser_alpha);
    } else {
      v = rng.lognormal(p.mu, p.sigma);
    }
    v = std::clamp(v, 1.0, static_cast<double>(config.max_records));
    counts.push_back(static_cast<std::uint32_t>(std::llround(v)));
  }
  return counts;
}

}  // namespace flint::data
