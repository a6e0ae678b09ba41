// Learning-rate schedules over communication rounds. Figure 10 of the paper
// compares two exponential-decay schedules and shows the choice drives
// training stability under heterogeneous client sampling.
#pragma once

#include <cstdint>

namespace flint::fl {

/// Value-type LR schedule evaluated at a round index.
class LrSchedule {
 public:
  /// lr(r) = lr0.
  static LrSchedule constant(double lr);

  /// lr(r) = max(min_lr, lr0 * decay_rate^(r / decay_rounds)); `staircase`
  /// uses the integer quotient (step decay).
  static LrSchedule exponential_decay(double initial, double decay_rate,
                                      std::uint64_t decay_rounds, bool staircase = false,
                                      double min_lr = 0.0);

  double at(std::uint64_t round) const;

 private:
  enum class Kind { kConstant, kExponential };
  LrSchedule(Kind kind, double initial, double decay_rate, std::uint64_t period, bool staircase,
             double min_lr);

  Kind kind_;
  double initial_;
  double decay_rate_;
  std::uint64_t period_;
  bool staircase_;
  double min_lr_;
};

}  // namespace flint::fl
