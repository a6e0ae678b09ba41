#include "flint/privacy/dp.h"

#include <cmath>

#include "flint/ml/kernels/kernels.h"
#include "flint/util/check.h"

namespace flint::privacy {

double apply_dp(std::vector<float>& update, const DpConfig& config, std::size_t participants,
                util::Rng& rng) {
  FLINT_CHECK_GT(participants, std::size_t{0});
  FLINT_CHECK_FINITE(config.clip_norm);
  FLINT_CHECK_GT(config.clip_norm, 0.0);
  double stddev =
      config.noise_multiplier * config.clip_norm / static_cast<double>(participants);
  FLINT_CHECK_FINITE(stddev);
  FLINT_CHECK_GE(stddev, 0.0);
  // Fused clip + noise: one norm pass and one combined scale-and-add sweep
  // (see kernels::clip_noise).
  return ml::kernels::clip_noise(update.data(), update.size(), config.clip_norm, stddev,
                                 rng);
}

DpAccountant::DpAccountant(const DpConfig& config, double sampling_rate)
    : config_(config), sampling_rate_(sampling_rate) {
  FLINT_CHECK_GT(config.noise_multiplier, 0.0);
  FLINT_CHECK_PROB(config.delta);
  FLINT_CHECK_GT(config.delta, 0.0);
  FLINT_CHECK_LT(config.delta, 1.0);
  FLINT_CHECK_PROB(sampling_rate);
  FLINT_CHECK_GT(sampling_rate, 0.0);
}

double DpAccountant::epsilon() const {
  if (rounds_ == 0) return 0.0;
  double t = static_cast<double>(rounds_);
  return sampling_rate_ * std::sqrt(2.0 * t * std::log(1.0 / config_.delta)) /
         config_.noise_multiplier;
}

std::uint64_t DpAccountant::rounds_until(double epsilon_budget) const {
  FLINT_CHECK_FINITE(epsilon_budget);
  FLINT_CHECK_GT(epsilon_budget, 0.0);
  // Invert epsilon(T) = q * sqrt(2 T ln(1/delta)) / sigma for T.
  double ratio = epsilon_budget * config_.noise_multiplier / sampling_rate_;
  double t_max = ratio * ratio / (2.0 * std::log(1.0 / config_.delta));
  if (static_cast<double>(rounds_) >= t_max) return 0;
  return static_cast<std::uint64_t>(t_max) - rounds_;
}

}  // namespace flint::privacy
