// Edge network bandwidth models. The paper samples client bandwidth N from
// the Puffer dataset (Yan et al., NSDI 2020) when computing
// taskDuration(k) = t*E*|D_k| + 2M/N. We cannot ship that dataset, so
// PufferLikeBandwidthModel reproduces its qualitative shape: a heavy-tailed
// mixture spanning ~1 Mbps (congested cellular) to ~100+ Mbps (good WiFi).
#pragma once

#include <cstdint>
#include <vector>

#include "flint/util/rng.h"

namespace flint::net {

/// Interface: draw one client's downlink/uplink bandwidth in Mbps.
class BandwidthModel {
 public:
  virtual ~BandwidthModel() = default;

  /// One bandwidth sample in Mbps (> 0).
  virtual double sample_mbps(util::Rng& rng) const = 0;
};

/// One lognormal mixture component.
struct BandwidthComponent {
  double weight = 1.0;  ///< mixture weight (normalized internally)
  double mu = 0.0;      ///< lognormal mu (of the underlying normal, ln-Mbps)
  double sigma = 1.0;   ///< lognormal sigma
};

/// Lognormal mixture over edge bandwidths, default-calibrated to the Puffer
/// dataset's published throughput range. Samples are clamped to
/// [floor_mbps, ceil_mbps] so no task sees a pathological bandwidth.
class PufferLikeBandwidthModel : public BandwidthModel {
 public:
  /// Default mixture: 20% congested (~1.5 Mbps median), 55% typical
  /// (~12 Mbps), 25% fast (~55 Mbps).
  PufferLikeBandwidthModel();

  explicit PufferLikeBandwidthModel(std::vector<BandwidthComponent> components,
                                    double floor_mbps = 0.2, double ceil_mbps = 400.0);

  double sample_mbps(util::Rng& rng) const override;

  const std::vector<BandwidthComponent>& components() const { return components_; }

 private:
  std::vector<BandwidthComponent> components_;
  std::vector<double> weights_;
  double floor_mbps_;
  double ceil_mbps_;
};

/// Seconds to move `bytes` over a `mbps` link.
double transfer_seconds(std::uint64_t bytes, double mbps);

}  // namespace flint::net
