#include "flint/obs/telemetry_snapshot.h"

#include "flint/util/bytes.h"
#include "flint/util/check.h"

namespace flint::obs {

namespace {

// Ceilings checked before any sized allocation during deserialize (the
// rpc/messages.cpp convention): a corrupt count that slipped past the frame
// CRC must not drive an OOM. Every count and name length is a u32.
constexpr util::Count<std::uint32_t> kSeries{4096};
constexpr util::Count<std::uint32_t> kNameBytes{256};
constexpr util::Count<std::uint32_t> kBuckets{4096};
// Each record's empty name length plus its fixed fields.
constexpr std::size_t kCounterMinBytes = 4 + 8;
constexpr std::size_t kGaugeMinBytes = 4 + 8;
constexpr std::size_t kHistogramMinBytes = 4 + 4 * 8 + 4;

template <typename IO, util::RecordOf<TelemetrySnapshot> S>
void walk(IO& io, S& snap) {
  io.version(S::kSchemaVersion, "TelemetrySnapshot schema");
  io.field(snap.seq);
  io.records(snap.counters, kSeries, kCounterMinBytes, [](auto& io, auto& c) {
    io.string(c.name, kNameBytes);
    io.field(c.delta);
  });
  io.records(snap.gauges, kSeries, kGaugeMinBytes, [](auto& io, auto& g) {
    io.string(g.name, kNameBytes);
    io.field(g.value);
  });
  io.records(snap.histograms, kSeries, kHistogramMinBytes, [](auto& io, auto& h) {
    io.string(h.name, kNameBytes);
    io.field(h.lo);
    io.field(h.hi);
    io.field(h.count_delta);
    io.field(h.sum_delta);
    io.vector(h.bucket_deltas, kBuckets);
  });
}

}  // namespace

std::vector<char> TelemetrySnapshot::serialize() const {
  util::ByteWriter out;
  walk(out, *this);
  return out.take();
}

TelemetrySnapshot TelemetrySnapshot::deserialize(const std::vector<char>& bytes) {
  util::ByteReader in(bytes);
  TelemetrySnapshot snap;
  walk(in, snap);
  in.finish("TelemetrySnapshot payload");
  return snap;
}

TelemetrySnapshot TelemetrySnapshotEncoder::encode(const MetricRegistry& registry) {
  TelemetrySnapshot snap;
  snap.seq = ++seq_;
  for (const MetricSample& sample : registry.snapshot()) {
    switch (sample.kind) {
      case MetricSample::Kind::kCounter: {
        // Counter values are exact in a double far beyond any realistic count.
        auto value = static_cast<std::uint64_t>(sample.value);
        std::uint64_t& baseline = counter_baseline_[sample.name];
        if (value > baseline) {
          snap.counters.push_back({sample.name, value - baseline});
          baseline = value;
        }
        break;
      }
      case MetricSample::Kind::kGauge:
        // Gauges ship absolute: last-write-wins semantics survive loss.
        snap.gauges.push_back({sample.name, sample.value});
        break;
      case MetricSample::Kind::kHistogram: {
        std::uint64_t& count_baseline = histogram_count_baseline_[sample.name];
        if (sample.count == count_baseline) break;
        double& sum_baseline = histogram_sum_baseline_[sample.name];
        std::vector<std::uint64_t>& bucket_baseline =
            histogram_bucket_baseline_[sample.name];
        bucket_baseline.resize(sample.buckets.size(), 0);
        TelemetrySnapshot::HistogramDelta delta;
        delta.name = sample.name;
        delta.lo = sample.lo;
        delta.hi = sample.hi;
        delta.count_delta = sample.count - count_baseline;
        delta.sum_delta = sample.sum - sum_baseline;
        delta.bucket_deltas.reserve(sample.buckets.size());
        for (std::size_t i = 0; i < sample.buckets.size(); ++i)
          delta.bucket_deltas.push_back(sample.buckets[i] - bucket_baseline[i]);
        count_baseline = sample.count;
        sum_baseline = sample.sum;
        bucket_baseline = sample.buckets;
        snap.histograms.push_back(std::move(delta));
        break;
      }
    }
  }
  return snap;
}

std::string executor_series_label(const std::string& name, std::uint64_t executor_id) {
  return name + "{executor=" + std::to_string(executor_id) + "}";
}

bool TelemetrySnapshotMerger::apply(std::uint64_t executor_id,
                                    const TelemetrySnapshot& snapshot,
                                    MetricRegistry& registry) {
  std::uint64_t& last_seq = last_applied_seq_[executor_id];
  if (snapshot.seq <= last_seq) return false;  // duplicated or reordered heartbeat
  last_seq = snapshot.seq;
  for (const TelemetrySnapshot::CounterDelta& c : snapshot.counters)
    registry.counter(executor_series_label(c.name, executor_id)).add(c.delta);
  for (const TelemetrySnapshot::GaugeValue& g : snapshot.gauges)
    registry.gauge(executor_series_label(g.name, executor_id)).set(g.value);
  for (const TelemetrySnapshot::HistogramDelta& h : snapshot.histograms) {
    FLINT_CHECK_GT(h.bucket_deltas.size(), std::size_t{0});
    registry.histogram(executor_series_label(h.name, executor_id), h.lo, h.hi,
                       h.bucket_deltas.size())
        .merge_delta(h.count_delta, h.sum_delta, h.bucket_deltas);
  }
  return true;
}

}  // namespace flint::obs
