// Runtime metric registry for the observability subsystem (flint::obs).
//
// The paper's pitch is that FL experiments land in the same monitoring
// surface as centralized ML (Figure 3); core/report covers the after-the-fact
// half of that, and this registry covers the live half: counters, gauges, and
// fixed-bucket histograms that hot simulator code records into through cheap,
// stable handles. Recording is lock-free (plain atomics); only handle
// creation and snapshotting take the registry mutex, so a disabled or absent
// registry costs a pointer load per instrumented site (see telemetry.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flint/util/thread_annotations.h"

namespace flint::obs {

/// Monotone event count. add() is safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, buffer occupancy).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed uniform-bucket histogram over [lo, hi); out-of-range samples land in
/// the saturating edge buckets (the util::Histogram convention) so nothing is
/// silently dropped. record() is safe from any thread.
class HistogramMetric {
 public:
  HistogramMetric(double lo, double hi, std::size_t buckets);

  void record(double x);

  /// Fold a remote delta window into this histogram (the telemetry-shipping
  /// merge path, telemetry_snapshot.h): bucket-wise counts plus count/sum
  /// increments. `bucket_deltas.size()` must equal bucket_count(). Safe from
  /// any thread, like record().
  void merge_delta(std::uint64_t count_delta, double sum_delta,
                   const std::vector<std::uint64_t>& bucket_deltas);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bucket_count() const { return buckets_.size(); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  double lo_;
  double hi_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One series' state at snapshot time.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;  ///< counter/gauge value; histogram mean
  // Histogram-only fields.
  std::uint64_t count = 0;
  double sum = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> buckets;

  /// One JSONL line: {"series":...,"type":...,"t_virtual_s":...,...}.
  std::string to_jsonl(double virtual_time_s) const;

  /// Estimated q-quantile of a histogram sample (0 for other kinds / empty).
  double quantile(double q) const;
};

const char* kind_name(MetricSample::Kind kind);

/// Estimate the q-quantile (q in [0,1]) of a fixed-uniform-bucket histogram
/// over [lo, hi) by linear interpolation inside the covering bucket. Samples
/// beyond the range sit in the saturating edge buckets, so estimates clamp to
/// [lo, hi] — tails wider than the configured range are reported at the edge
/// rather than invented. Returns 0 when the histogram is empty.
double histogram_quantile(double q, double lo, double hi,
                          const std::vector<std::uint64_t>& buckets);

/// Name -> metric map with stable handle addresses. Handle creation is
/// idempotent: asking for an existing name returns the same object, so call
/// sites can re-resolve after a telemetry swap without duplicating series.
class MetricRegistry {
 public:
  Counter& counter(const std::string& name) FLINT_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) FLINT_EXCLUDES(mu_);
  /// Requesting an existing histogram ignores the shape arguments.
  HistogramMetric& histogram(const std::string& name, double lo, double hi,
                             std::size_t buckets) FLINT_EXCLUDES(mu_);

  std::size_t series_count() const FLINT_EXCLUDES(mu_);

  /// Point-in-time copy of every series, sorted by name.
  std::vector<MetricSample> snapshot() const FLINT_EXCLUDES(mu_);

 private:
  // mu_ guards handle creation and snapshots only; recording goes through the
  // returned handles' atomics and never takes it.
  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ FLINT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ FLINT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_ FLINT_GUARDED_BY(mu_);
};

}  // namespace flint::obs
