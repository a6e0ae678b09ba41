#include "flint/util/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "flint/util/check.h"

namespace flint::util {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  FLINT_CHECK(hi > lo);
  FLINT_CHECK(bins > 0);
  counts_.assign(bins, 0.0);
}

void Histogram::add(double x, double weight) {
  double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::ptrdiff_t>(frac * static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::vector<double> Histogram::normalized_to_peak() const {
  double peak = *std::max_element(counts_.begin(), counts_.end());
  std::vector<double> out(counts_.size(), 0.0);
  if (peak <= 0.0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) out[i] = counts_[i] / peak;
  return out;
}

std::string Histogram::render(std::size_t width) const {
  std::ostringstream os;
  auto norm = normalized_to_peak();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    auto bars = static_cast<std::size_t>(norm[i] * static_cast<double>(width) + 0.5);
    os.precision(3);
    os << "[" << bin_lo(i) << ", " << bin_hi(i) << ") " << std::string(bars, '#') << " "
       << counts_[i] << "\n";
  }
  return os.str();
}

std::vector<CcdfPoint> log_ccdf(std::vector<double> values, std::size_t points) {
  FLINT_CHECK(!values.empty());
  FLINT_CHECK(points >= 2);
  std::sort(values.begin(), values.end());
  double lo = std::max(values.front(), 1e-12);
  double hi = std::max(values.back(), lo * (1.0 + 1e-9));
  std::vector<CcdfPoint> out;
  out.reserve(points);
  double log_lo = std::log(lo);
  double log_hi = std::log(hi);
  for (std::size_t i = 0; i < points; ++i) {
    double t = static_cast<double>(i) / static_cast<double>(points - 1);
    // Pin the final point to the exact max so exp/log rounding can't leave
    // the top sample "above" the last CCDF value.
    double v = (i + 1 == points) ? values.back() : std::exp(log_lo + t * (log_hi - log_lo));
    // Fraction strictly greater than v.
    auto it = std::upper_bound(values.begin(), values.end(), v);
    double frac =
        static_cast<double>(values.end() - it) / static_cast<double>(values.size());
    out.push_back({v, frac});
  }
  return out;
}

}  // namespace flint::util
