// Differential privacy for FL updates (paper §3.6): per-update L2 clipping
// plus Gaussian noising, with a simple composition accountant so modelers
// can trade epsilon against model quality in the experimental framework.
#pragma once

#include <cstdint>
#include <vector>

#include "flint/util/rng.h"

namespace flint::privacy {

/// DP-FL mechanism parameters.
struct DpConfig {
  double clip_norm = 1.0;        ///< L2 sensitivity bound per client update
  double noise_multiplier = 1.0; ///< sigma = noise_multiplier * clip_norm
  double delta = 1e-6;           ///< target delta
};

/// Apply the full per-client mechanism: clip then noise with
/// sigma = noise_multiplier * clip_norm / participants (server-side noise
/// split across the cohort average). Returns the pre-clip norm.
double apply_dp(std::vector<float>& update, const DpConfig& config, std::size_t participants,
                util::Rng& rng);

/// Simplified privacy accountant for the Gaussian mechanism under Poisson
/// client sampling. Uses the strong-composition bound
///   epsilon ~= q * sqrt(2 * T * ln(1/delta)) / sigma_multiplier
/// which is conservative relative to a full moments accountant but has the
/// right shape (sqrt in rounds, linear in sampling rate). Documented as an
/// estimate, suitable for the platform's what-if analyses.
class DpAccountant {
 public:
  DpAccountant(const DpConfig& config, double sampling_rate);

  /// Record `n` more aggregation rounds.
  void record_rounds(std::uint64_t n) { rounds_ += n; }

  std::uint64_t rounds() const { return rounds_; }

  /// Estimated epsilon spent so far.
  double epsilon() const;

  /// Rounds remaining before `epsilon_budget` is exhausted (0 if already).
  std::uint64_t rounds_until(double epsilon_budget) const;

 private:
  DpConfig config_;
  double sampling_rate_;
  std::uint64_t rounds_ = 0;
};

}  // namespace flint::privacy
