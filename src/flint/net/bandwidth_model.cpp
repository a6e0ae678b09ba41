#include "flint/net/bandwidth_model.h"

#include <algorithm>
#include <cmath>

namespace flint::net {

PufferLikeBandwidthModel::PufferLikeBandwidthModel()
    : PufferLikeBandwidthModel(
          {
              {.weight = 0.20, .mu = std::log(1.5), .sigma = 0.8},   // congested cellular
              {.weight = 0.55, .mu = std::log(12.0), .sigma = 0.7},  // typical broadband
              {.weight = 0.25, .mu = std::log(55.0), .sigma = 0.5},  // fast WiFi
          }) {}

PufferLikeBandwidthModel::PufferLikeBandwidthModel(std::vector<BandwidthComponent> components,
                                                   double floor_mbps, double ceil_mbps)
    : components_(std::move(components)), floor_mbps_(floor_mbps), ceil_mbps_(ceil_mbps) {
  FLINT_CHECK(!components_.empty());
  FLINT_CHECK_GT(floor_mbps_, 0.0);
  FLINT_CHECK_GT(ceil_mbps_, floor_mbps_);
  for (const auto& c : components_) {
    FLINT_CHECK_FINITE(c.mu);
    FLINT_CHECK_GT(c.weight, 0.0);
    FLINT_CHECK_GT(c.sigma, 0.0);
    weights_.push_back(c.weight);
  }
}

double PufferLikeBandwidthModel::sample_mbps(util::Rng& rng) const {
  const auto& c = components_[rng.categorical(weights_)];
  double v = rng.lognormal(c.mu, c.sigma);
  return std::clamp(v, floor_mbps_, ceil_mbps_);
}

double transfer_seconds(std::uint64_t bytes, double mbps) {
  FLINT_CHECK_FINITE(mbps);
  FLINT_CHECK_GT(mbps, 0.0);
  return static_cast<double>(bytes) * 8.0 / (mbps * 1e6);
}

}  // namespace flint::net
