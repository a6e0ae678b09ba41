#include "flint/fl/lr_schedule.h"

#include <algorithm>
#include <cmath>

#include "flint/util/check.h"

namespace flint::fl {

LrSchedule::LrSchedule(Kind kind, double initial, double decay_rate, std::uint64_t period,
                       bool staircase, double min_lr)
    : kind_(kind),
      initial_(initial),
      decay_rate_(decay_rate),
      period_(period),
      staircase_(staircase),
      min_lr_(min_lr) {
  FLINT_CHECK_FINITE(initial);
  FLINT_CHECK_GT(initial, 0.0);
}

LrSchedule LrSchedule::constant(double lr) {
  return LrSchedule(Kind::kConstant, lr, 1.0, 1, false, 0.0);
}

LrSchedule LrSchedule::exponential_decay(double initial, double decay_rate,
                                         std::uint64_t decay_rounds, bool staircase,
                                         double min_lr) {
  FLINT_CHECK_GT(decay_rate, 0.0);
  FLINT_CHECK_LE(decay_rate, 1.0);
  FLINT_CHECK_GT(decay_rounds, std::uint64_t{0});
  return LrSchedule(Kind::kExponential, initial, decay_rate, decay_rounds, staircase, min_lr);
}

double LrSchedule::at(std::uint64_t round) const {
  switch (kind_) {
    case Kind::kConstant:
      return initial_;
    case Kind::kExponential: {
      double exponent = staircase_
                            ? static_cast<double>(round / period_)
                            : static_cast<double>(round) / static_cast<double>(period_);
      return std::max(min_lr_, initial_ * std::pow(decay_rate_, exponent));
    }
  }
  return initial_;
}

}  // namespace flint::fl
