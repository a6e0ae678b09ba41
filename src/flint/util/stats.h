// Streaming and batch statistics used across FLINT's measurement tools.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace flint::util {

/// Welford online mean/variance with min/max tracking. O(1) memory, suitable
/// for the multi-million-client streams the proxy generator analyzes.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  /// Sample (Bessel-corrected) variance; 0 for fewer than 2 samples.
  double sample_variance() const;
  double stddev() const;
  double sum() const { return n_ == 0 ? 0.0 : mean_ * static_cast<double>(n_); }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact percentile of a sample (linear interpolation between order
/// statistics). Copies and sorts; use for result reporting, not hot paths.
double percentile(std::vector<double> values, double p);

/// Median convenience wrapper.
double median(std::vector<double> values);

/// Five-number-style summary for report tables.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Summary summarize(const std::vector<double>& values);

/// Parameters of the normal underlying a lognormal distribution.
struct LognormalParams {
  double mu = 0.0;
  double sigma = 1.0;
};

/// Solve lognormal (mu, sigma) from a target mean and standard deviation
/// (moment matching). stddev == 0 degenerates to a near-point mass.
LognormalParams lognormal_from_moments(double mean, double stddev);

}  // namespace flint::util
