// Fixed-bin histograms and CCDF extraction for availability curves and
// client-quantity distributions (Figures 2 and 5 in the paper).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace flint::util {

/// Uniform-width histogram over [lo, hi). Values outside the range land in
/// saturating edge bins so no sample is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  std::size_t bin_count() const { return counts_.size(); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double count(std::size_t i) const { return counts_[i]; }
  double total() const { return total_; }

  /// Counts normalized so the max bin equals 1 (the paper's Figure 2 style).
  std::vector<double> normalized_to_peak() const;

  /// Multi-line ASCII rendering for bench output.
  std::string render(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// A point on a complementary CDF: fraction of samples > value.
struct CcdfPoint {
  double value = 0.0;
  double fraction = 0.0;
};

/// CCDF sampled at `points` log-spaced values across the sample range.
/// Useful for heavy-tailed client-quantity plots (Figure 5).
std::vector<CcdfPoint> log_ccdf(std::vector<double> values, std::size_t points = 20);

}  // namespace flint::util
