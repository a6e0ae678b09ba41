#include "flint/util/stats.h"

#include <algorithm>
#include <cmath>

#include "flint/util/check.h"

namespace flint::util {

void RunningStats::add(double x) {
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::sample_variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(sample_variance()); }

double percentile(std::vector<double> values, double p) {
  FLINT_CHECK(!values.empty());
  FLINT_CHECK_FINITE(p);
  FLINT_CHECK_GE(p, 0.0);
  FLINT_CHECK_LE(p, 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  auto hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

LognormalParams lognormal_from_moments(double mean, double stddev) {
  FLINT_CHECK_FINITE(mean);
  FLINT_CHECK_GT(mean, 0.0);
  FLINT_CHECK_FINITE(stddev);
  FLINT_CHECK_GE(stddev, 0.0);
  LognormalParams p;
  // The real hazard is a near-zero coefficient of variation, not exact 0.0:
  // (stddev/mean)^2 underflows and log1p returns a denormal sigma. Treat any
  // ratio below 1e-9 as the degenerate point-mass case.
  if (stddev < mean * 1e-9) {
    p.mu = std::log(mean);
    p.sigma = 1e-9;
    return p;
  }
  double ratio2 = (stddev / mean) * (stddev / mean);
  p.sigma = std::sqrt(std::log1p(ratio2));
  p.mu = std::log(mean) - 0.5 * p.sigma * p.sigma;
  return p;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  RunningStats rs;
  for (double v : values) rs.add(v);
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  s.p50 = percentile(values, 50.0);
  s.p90 = percentile(values, 90.0);
  s.p99 = percentile(values, 99.0);
  return s;
}

}  // namespace flint::util
