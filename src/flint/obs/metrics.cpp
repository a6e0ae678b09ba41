#include "flint/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "flint/util/check.h"

namespace flint::obs {

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), buckets_(buckets) {
  FLINT_CHECK_FINITE(lo);
  FLINT_CHECK_FINITE(hi);
  FLINT_CHECK_LT(lo, hi);
  FLINT_CHECK_GT(buckets, std::size_t{0});
}

void HistogramMetric::record(double x) {
  if (std::isnan(x)) return;  // a NaN sample has no bucket; drop it
  double pos = (x - lo_) / (hi_ - lo_) * static_cast<double>(buckets_.size());
  std::size_t idx;
  if (pos <= 0.0) {
    idx = 0;
  } else if (pos >= static_cast<double>(buckets_.size())) {
    idx = buckets_.size() - 1;
  } else {
    idx = static_cast<std::size_t>(pos);
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20 but not universally lock-free; a CAS
  // loop keeps the sum exact and portable.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

void HistogramMetric::merge_delta(std::uint64_t count_delta, double sum_delta,
                                  const std::vector<std::uint64_t>& bucket_deltas) {
  FLINT_CHECK_EQ(bucket_deltas.size(), buckets_.size());
  for (std::size_t i = 0; i < bucket_deltas.size(); ++i) {
    if (bucket_deltas[i] != 0)
      buckets_[i].fetch_add(bucket_deltas[i], std::memory_order_relaxed);
  }
  count_.fetch_add(count_delta, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + sum_delta, std::memory_order_relaxed)) {
  }
}

double histogram_quantile(double q, double lo, double hi,
                          const std::vector<std::uint64_t>& buckets) {
  FLINT_CHECK_PROB(q);
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0 || buckets.empty()) return 0.0;
  // Rank of the target sample (1-based, midpoint convention): the smallest
  // rank r with cumulative(r) >= q * total, interpolated within its bucket
  // under a uniform-within-bucket assumption.
  double target = q * static_cast<double>(total);
  if (target < 1.0) target = 1.0;
  double width = (hi - lo) / static_cast<double>(buckets.size());
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    double before = static_cast<double>(cum);
    cum += buckets[i];
    if (static_cast<double>(cum) >= target) {
      double frac = (target - before) / static_cast<double>(buckets[i]);
      return lo + (static_cast<double>(i) + frac) * width;
    }
  }
  return hi;  // unreachable given total > 0, but keeps the compiler honest
}

double MetricSample::quantile(double q) const {
  if (kind != Kind::kHistogram) return 0.0;
  return histogram_quantile(q, lo, hi, buckets);
}

const char* kind_name(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

namespace {

void append_json_number(std::ostringstream& os, double v) {
  // JSON has no NaN/inf literals; clamp to null which every parser accepts.
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  os << v;
}

// Series names are usually literals, but executor counters splice in ids, so
// escape defensively — an unescaped quote would corrupt the whole JSONL file.
void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string MetricSample::to_jsonl(double virtual_time_s) const {
  std::ostringstream os;
  os.precision(12);
  os << "{\"series\":";
  append_json_string(os, name);
  os << ",\"type\":\"" << kind_name(kind) << "\",\"t_virtual_s\":";
  append_json_number(os, virtual_time_s);
  if (kind == Kind::kHistogram) {
    os << ",\"count\":" << count << ",\"sum\":";
    append_json_number(os, sum);
    os << ",\"mean\":";
    append_json_number(os, value);
    os << ",\"p50\":";
    append_json_number(os, quantile(0.50));
    os << ",\"p95\":";
    append_json_number(os, quantile(0.95));
    os << ",\"p99\":";
    append_json_number(os, quantile(0.99));
    os << ",\"lo\":";
    append_json_number(os, lo);
    os << ",\"hi\":";
    append_json_number(os, hi);
    os << ",\"buckets\":[";
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (i > 0) os << ",";
      os << buckets[i];
    }
    os << "]";
  } else {
    os << ",\"value\":";
    append_json_number(os, value);
  }
  os << "}";
  return os.str();
}

Counter& MetricRegistry::counter(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  util::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricRegistry::histogram(const std::string& name, double lo, double hi,
                                           std::size_t buckets) {
  util::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<HistogramMetric>(lo, hi, buckets);
  return *slot;
}

std::size_t MetricRegistry::series_count() const {
  util::MutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  util::MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.count = h->count();
    s.sum = h->sum();
    s.value = s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count);
    s.lo = h->lo();
    s.hi = h->hi();
    s.buckets.reserve(h->bucket_count());
    for (std::size_t i = 0; i < h->bucket_count(); ++i) s.buckets.push_back(h->bucket(i));
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return out;
}

}  // namespace flint::obs
