#include "span_math.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// Samples a reported tail percentile must have strictly beyond its rank.
constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile p among n samples. The slack absorbs
/// decimal percentiles that are not exact in binary (99.9% of 10000 must
/// be rank 9990, not 9991).
std::size_t nearest_rank(std::size_t n, double p) {
  double exact = p * static_cast<double>(n) / 100.0;
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9 * std::max(1.0, exact)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::optional<Tail> tail_percentile(std::vector<double> samples) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (double p : kLadder) {
    if (n - nearest_rank(n, p) >= kMinBeyond) return Tail{p, percentile_sorted(samples, p), n};
  }
  return std::nullopt;
}

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  bool open = false;
  Interval run;
  for (const Interval& iv : intervals) {
    if (!(iv.end > iv.start)) continue;
    if (open && iv.start <= run.end) {
      run.end = std::max(run.end, iv.end);
      continue;
    }
    if (open) total += run.end - run.start;
    run = iv;
    open = true;
  }
  if (open) total += run.end - run.start;
  return total;
}

double self_time(const Interval& parent, const std::vector<Interval>& children) {
  if (!(parent.end > parent.start)) return 0.0;
  std::vector<Interval> clipped;
  clipped.reserve(children.size());
  for (const Interval& c : children)
    clipped.push_back({std::max(c.start, parent.start), std::min(c.end, parent.end)});
  return (parent.end - parent.start) - union_length(std::move(clipped));
}

}  // namespace perfbench
