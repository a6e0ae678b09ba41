#include "flint/privacy/secure_agg.h"

#include "flint/util/check.h"

namespace flint::privacy {

TeeSecureAggregator::TeeSecureAggregator(const TeeConfig& config) : config_(config) {
  FLINT_CHECK(config.bandwidth_mbps > 0.0);
}

double TeeSecureAggregator::required_mbytes_per_s(double updates_per_s,
                                                  std::uint64_t update_bytes) const {
  FLINT_CHECK(updates_per_s >= 0.0);
  double bytes_per_s =
      updates_per_s * (static_cast<double>(update_bytes) + config_.per_update_overhead_bytes);
  return bytes_per_s / 1e6;
}

bool TeeSecureAggregator::within_capacity(double updates_per_s,
                                          std::uint64_t update_bytes) const {
  return required_mbytes_per_s(updates_per_s, update_bytes) * 8.0 <= config_.bandwidth_mbps;
}

}  // namespace flint::privacy
