// Secure aggregation (paper §3.6): the ingress capacity model of a TEE-based
// aggregator ("a TEE needs to receive and aggregate only 2.68MB/second of
// updates", §3.5).
#pragma once

#include <cstdint>


namespace flint::privacy {

/// TEE capacity/cost model.
struct TeeConfig {
  double bandwidth_mbps = 24.0;        ///< enclave ingress limit (~3 MB/s)
  double per_update_overhead_bytes = 256;  ///< envelope/encryption overhead
};

/// Trusted-execution-environment aggregator, as a capacity model: the
/// ingress bandwidth an update stream needs and whether the enclave keeps up.
class TeeSecureAggregator {
 public:
  explicit TeeSecureAggregator(const TeeConfig& config);

  /// Ingress bandwidth (MB/s) needed to sustain `updates_per_s` updates of
  /// `update_bytes` each, including envelope overhead.
  double required_mbytes_per_s(double updates_per_s, std::uint64_t update_bytes) const;

  /// Can this enclave sustain the given update stream?
  bool within_capacity(double updates_per_s, std::uint64_t update_bytes) const;

 private:
  TeeConfig config_;
};

}  // namespace flint::privacy
