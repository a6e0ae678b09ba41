#include "flint/device/hardware_distribution.h"

#include <algorithm>
#include <cmath>

#include "flint/util/check.h"

namespace flint::device {

namespace {

HardwareDistribution finalize(Os os, std::vector<HardwareShare> shares) {
  std::sort(shares.begin(), shares.end(),
            [](const HardwareShare& a, const HardwareShare& b) { return a.share > b.share; });
  HardwareDistribution out;
  out.os = os;
  out.shares = std::move(shares);
  for (const auto& s : out.shares)
    if (s.share > 0.0) out.entropy_bits -= s.share * std::log2(s.share);
  for (std::size_t i = 0; i < std::min<std::size_t>(3, out.shares.size()); ++i)
    out.top3_share += out.shares[i].share;
  return out;
}

}  // namespace

double HardwareDistribution::other_share(std::size_t legend_size) const {
  double other = 0.0;
  for (std::size_t i = legend_size; i < shares.size(); ++i) other += shares[i].share;
  return other;
}

HardwareDistribution sampled_hardware_distribution(const DeviceCatalog& catalog, Os os,
                                                   std::size_t clients, util::Rng& rng) {
  FLINT_CHECK(clients > 0);
  auto eligible = catalog.devices_with_os(os);
  FLINT_CHECK(!eligible.empty());
  std::vector<double> weights;
  weights.reserve(eligible.size());
  for (std::size_t idx : eligible) weights.push_back(catalog.profile(idx).popularity);
  std::vector<std::size_t> counts(eligible.size(), 0);
  for (std::size_t c = 0; c < clients; ++c) ++counts[rng.categorical(weights)];
  std::vector<HardwareShare> shares;
  for (std::size_t i = 0; i < eligible.size(); ++i)
    shares.push_back({catalog.profile(eligible[i]).name,
                      static_cast<double>(counts[i]) / static_cast<double>(clients)});
  return finalize(os, std::move(shares));
}

}  // namespace flint::device
