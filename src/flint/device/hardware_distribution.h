// User-base hardware distribution analysis (paper Figure 1): per-OS device
// model shares, diversity measures, and the "other devices" gray region.
#pragma once

#include <string>
#include <vector>

#include "flint/device/device_catalog.h"
#include "flint/util/rng.h"

namespace flint::device {

/// One device model's share of the (per-OS) user base.
struct HardwareShare {
  std::string name;
  double share = 0.0;  ///< fraction of that OS's users, in [0, 1]
};

/// Per-OS hardware distribution summary.
struct HardwareDistribution {
  Os os = Os::kIos;
  std::vector<HardwareShare> shares;  ///< sorted by descending share
  double entropy_bits = 0.0;          ///< Shannon entropy of the shares
  double top3_share = 0.0;            ///< coverage of the top 3 models
  /// Share of models outside the top `legend_size` (the gray region).
  double other_share(std::size_t legend_size) const;
};

/// Empirical distribution from sampling `clients` users of the given OS
/// (what a production session-log analysis would see).
HardwareDistribution sampled_hardware_distribution(const DeviceCatalog& catalog, Os os,
                                                   std::size_t clients, util::Rng& rng);

}  // namespace flint::device
