// Order statistics and interval arithmetic behind the benchmark's per-layer
// metrics: the tail-percentile rule and span self time.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A closed-open time interval [start, end) in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Nearest-rank percentile of `sorted` (ascending), p in (0, 100]: the value
/// at rank ceil(p/100 * n). Requires a non-empty input.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// A tail summary: the percentile reported, its value, and the sample count.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The highest percentile of the ladder 50, 90, 95, 99, 99.9, 99.99 that
/// still has at least 10 samples strictly beyond its rank, so a reported tail
/// always rests on that many observations. nullopt when even the median
/// lacks them (fewer than 20 samples).
std::optional<Tail> tail_percentile(std::vector<double> samples);

/// Total length covered by `intervals`; overlapping parts count once and
/// empty or inverted intervals count zero.
double union_length(std::vector<Interval> intervals);

/// Self time of `parent`: its duration minus the part of it that `children`
/// cover. Children are clipped to the parent and overlaps count once, so the
/// result is never negative and never exceeds the parent's duration.
double self_time(const Interval& parent, const std::vector<Interval>& children);

}  // namespace perfbench
