#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flint/obs/client_ledger.h"
#include "flint/obs/metrics.h"
#include "flint/obs/status.h"
#include "flint/obs/telemetry.h"
#include "flint/obs/trace.h"

namespace flint::obs {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- JSON checker
//
// Minimal recursive-descent JSON parser: accepts exactly RFC-ish JSON and
// nothing else, so a malformed byte anywhere in an emitted trace or JSONL
// line fails the test. Values are not materialized — we only validate.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(static_cast<unsigned char>(s_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') { ++pos_; if (!digits()) return false; }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    std::size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --------------------------------------------------------------- Registry

TEST(ObsRegistry, CounterGaugeBasics) {
  MetricRegistry registry;
  registry.counter("a").add(3);
  registry.counter("a").add(4);
  EXPECT_EQ(registry.counter("a").value(), 7u);
  registry.gauge("g").set(2.5);
  registry.gauge("g").set(-1.0);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), -1.0);
  EXPECT_EQ(registry.series_count(), 2u);
}

TEST(ObsRegistry, HandleIsStableAcrossInsertions) {
  MetricRegistry registry;
  Counter& a = registry.counter("stable");
  for (int i = 0; i < 100; ++i) registry.counter("filler." + std::to_string(i));
  a.add(1);  // must still be the live object after 100 more insertions
  EXPECT_EQ(registry.counter("stable").value(), 1u);
  EXPECT_EQ(&registry.counter("stable"), &a);
}

TEST(ObsRegistry, HistogramEdgeBucketsSaturate) {
  MetricRegistry registry;
  HistogramMetric& h = registry.histogram("h", 0.0, 10.0, 10);
  h.record(-100.0);  // below lo -> first bucket
  h.record(100.0);   // above hi -> last bucket
  h.record(5.0);
  h.record(std::nan(""));  // dropped
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.bucket(5), 1u);
}

TEST(ObsRegistry, SnapshotIsSortedAndTyped) {
  MetricRegistry registry;
  registry.gauge("z.gauge").set(1.0);
  registry.counter("a.counter").add(5);
  registry.histogram("m.hist", 0.0, 1.0, 4).record(0.3);
  auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.counter");
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(samples[1].name, "m.hist");
  EXPECT_EQ(samples[1].kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(samples[1].count, 1u);
  EXPECT_EQ(samples[2].name, "z.gauge");
  EXPECT_EQ(samples[2].kind, MetricSample::Kind::kGauge);
}

TEST(ObsRegistry, ConcurrentMixedOperations) {
  // Hammer one registry from several threads with lookups, recording, and
  // snapshots at once. Run under the TSan preset (scripts/run_sanitizers.sh
  // thread) this is the subsystem's data-race gate; in a plain build it
  // still checks no update is lost.
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  MetricRegistry registry;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      for (int i = 0; i < kIters; ++i) {
        registry.counter("shared").add(1);
        registry.counter("own." + std::to_string(t)).add(1);
        registry.gauge("depth").set(static_cast<double>(i));
        registry.histogram("lat", 0.0, 1000.0, 20).record(static_cast<double>(i % 1000));
        if (i % 1024 == 0) (void)registry.snapshot();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.histogram("lat", 0.0, 1000.0, 20).count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(registry.counter("own." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters));
}

TEST(ObsRegistry, JsonlLinesAreValidJson) {
  MetricRegistry registry;
  registry.counter("c\"quoted\\name").add(1);  // name needing escapes
  registry.gauge("g").set(std::nan(""));        // non-finite -> null
  registry.histogram("h", 0.0, 2.0, 2).record(1.0);
  for (const auto& sample : registry.snapshot()) {
    std::string line = sample.to_jsonl(12.5);
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    EXPECT_NE(line.find("\"t_virtual_s\":12.5"), std::string::npos) << line;
  }
}

// ----------------------------------------------------------------- Tracer

// ----------------------------------------------------------- client ledger

TEST(ObsLedger, AttributesOutcomesAndBytesPerClient) {
  ClientLedger ledger;
  ledger.register_client(1, /*tier=*/0, /*cohort=*/2, /*executor=*/0);
  ledger.register_client(2, /*tier=*/1, /*cohort=*/0, /*executor=*/1);
  ledger.on_task_finished(1, LedgerOutcome::kSucceeded, 10.0, 1000);
  ledger.on_task_finished(1, LedgerOutcome::kStale, 5.0, 1000);
  ledger.on_task_finished(2, LedgerOutcome::kInterrupted, 2.0, 1000);

  auto s = ledger.summary();
  EXPECT_EQ(s.totals.tasks_succeeded, 1u);
  EXPECT_EQ(s.totals.tasks_stale, 1u);
  EXPECT_EQ(s.totals.tasks_interrupted, 1u);
  EXPECT_EQ(s.totals.clients, 2u);
  EXPECT_NEAR(s.totals.compute_s, 17.0, 1e-12);
  // Stale + interrupted compute is wasted; succeeded compute is not.
  EXPECT_NEAR(s.totals.wasted_compute_s, 7.0, 1e-12);
  // Downloads happen for every task; uploads only for tasks that ran to the
  // end (succeeded or stale) — interruptions never send the update.
  EXPECT_EQ(s.totals.bytes_down, 3000u);
  EXPECT_EQ(s.totals.bytes_up, 2000u);
}

TEST(ObsLedger, UnregisteredClientsStillReconcileInTotals) {
  ClientLedger ledger;
  ledger.on_task_finished(99, LedgerOutcome::kFailed, 1.5, 500);
  auto s = ledger.summary();
  EXPECT_EQ(s.totals.tasks_failed, 1u);
  EXPECT_NEAR(s.totals.compute_s, 1.5, 1e-12);
  // Lands in the default tier/cohort bucket rather than disappearing.
  std::uint64_t tier_failed = 0;
  for (const auto& row : s.by_tier) tier_failed += row.tasks_failed;
  EXPECT_EQ(tier_failed, 1u);
}

TEST(ObsLedger, SummaryIsInsertionOrderInvariant) {
  // Rollup doubles must fold in client-id order, not hash-map insertion
  // order: a fresh run populates the ledger in task-completion order while a
  // resumed run restores accounts in client-id order, and float addition is
  // not bitwise-commutative. Feed identical accounts in two different orders
  // and require bit-identical summaries.
  // Values chosen to be non-representable sums so reordering actually
  // perturbs the low bits if folding order leaks through.
  std::vector<std::uint64_t> ids;
  for (std::uint64_t c = 0; c < 64; ++c) ids.push_back(c);

  auto build = [&](const std::vector<std::uint64_t>& order) {
    ClientLedger ledger;
    for (std::uint64_t c : order) {
      ledger.register_client(c, static_cast<std::uint32_t>(c % 3),
                             static_cast<std::uint32_t>(c % 3),
                             static_cast<std::uint32_t>(c % 4));
      ledger.on_task_finished(c, LedgerOutcome::kSucceeded, 0.1 + 0.007 * c, 100 + c);
      ledger.on_task_finished(c, LedgerOutcome::kStale, 1.0 / (1.0 + c), 50);
    }
    return ledger.summary(/*top_k=*/8);
  };

  std::vector<std::uint64_t> reversed(ids.rbegin(), ids.rend());
  std::vector<std::uint64_t> shuffled = ids;
  // Deterministic shuffle (no std::random_device): multiplicative stride.
  for (std::size_t i = 0; i < shuffled.size(); ++i)
    std::swap(shuffled[i], shuffled[(i * 37 + 11) % shuffled.size()]);

  auto a = build(ids);
  auto b = build(reversed);
  auto c = build(shuffled);

  auto expect_bits_equal = [](const LedgerRollup& x, const LedgerRollup& y) {
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.clients, y.clients);
    // Bit-identical, not approximately equal: memcmp via exact comparison.
    EXPECT_EQ(x.compute_s, y.compute_s);
    EXPECT_EQ(x.wasted_compute_s, y.wasted_compute_s);
    EXPECT_EQ(x.bytes_down, y.bytes_down);
    EXPECT_EQ(x.bytes_up, y.bytes_up);
  };
  expect_bits_equal(a.totals, b.totals);
  expect_bits_equal(a.totals, c.totals);
  ASSERT_EQ(a.by_tier.size(), b.by_tier.size());
  for (std::size_t i = 0; i < a.by_tier.size(); ++i) {
    expect_bits_equal(a.by_tier[i], b.by_tier[i]);
    expect_bits_equal(a.by_tier[i], c.by_tier[i]);
  }
  ASSERT_EQ(a.by_executor.size(), b.by_executor.size());
  for (std::size_t i = 0; i < a.by_executor.size(); ++i)
    expect_bits_equal(a.by_executor[i], b.by_executor[i]);
  ASSERT_EQ(a.stragglers.size(), b.stragglers.size());
  for (std::size_t i = 0; i < a.stragglers.size(); ++i)
    EXPECT_EQ(a.stragglers[i].client_id, b.stragglers[i].client_id);
}

TEST(ObsLedger, PooledEntriesRoundTripThroughSlots) {
  // The SoA pool behind the ledger (DESIGN.md §17): slots are first-touch
  // order, entry_at() must reassemble exactly what the column writes stored,
  // and re-registration keeps the account while overwriting classification.
  ClientLedger ledger;
  ledger.on_task_finished(7, LedgerOutcome::kSucceeded, 2.0, 100);  // slot 0
  ledger.register_client(3, 1, 2, 4);                               // slot 1
  ledger.on_task_finished(3, LedgerOutcome::kStale, 1.0, 50);
  ASSERT_EQ(ledger.client_count(), 2u);

  ClientLedgerEntry first = ledger.entry_at(0);
  EXPECT_EQ(first.client_id, 7u);
  EXPECT_EQ(first.tier, 0u);  // unregistered -> default bucket
  EXPECT_EQ(first.tasks_succeeded, 1u);
  EXPECT_EQ(first.bytes_up, 100u);

  ClientLedgerEntry second = ledger.entry_at(1);
  EXPECT_EQ(second.client_id, 3u);
  EXPECT_EQ(second.tier, 1u);
  EXPECT_EQ(second.cohort, 2u);
  EXPECT_EQ(second.executor, 4u);
  EXPECT_EQ(second.tasks_stale, 1u);
  EXPECT_NEAR(second.wasted_compute_s, 1.0, 1e-12);

  ledger.register_client(7, 2, 1, 3);  // reclassify; account must survive
  first = ledger.entry_at(0);
  EXPECT_EQ(first.tier, 2u);
  EXPECT_EQ(first.tasks_succeeded, 1u);
}

TEST(ObsLedger, LargePopulationReconcilesAndStaysDense) {
  // 200k touched clients through the interner + chunked columns: totals must
  // reconcile exactly and every slot must reassemble its own client id (a
  // collision or a mis-grown probe table would cross-wire accounts).
  constexpr std::uint64_t kClients = 200'000;
  ClientLedger ledger;
  for (std::uint64_t c = 0; c < kClients; ++c) {
    // Sparse, non-contiguous ids exercise the open-addressing path.
    std::uint64_t id = c * 2654435761ull + 17;
    ledger.on_task_finished(id, c % 2 == 0 ? LedgerOutcome::kSucceeded : LedgerOutcome::kStale,
                            0.5, 10);
  }
  ASSERT_EQ(ledger.client_count(), kClients);
  for (std::uint32_t slot = 0; slot < 1000; ++slot) {
    ClientLedgerEntry e = ledger.entry_at(slot);
    EXPECT_EQ(e.client_id, static_cast<std::uint64_t>(slot) * 2654435761ull + 17);
    EXPECT_EQ(e.tasks_finished(), 1u);
  }
  auto s = ledger.summary();
  EXPECT_EQ(s.totals.clients, kClients);
  EXPECT_EQ(s.totals.tasks_succeeded, kClients / 2);
  EXPECT_EQ(s.totals.tasks_stale, kClients / 2);
  EXPECT_EQ(s.totals.bytes_down, kClients * 10);
  EXPECT_NEAR(s.totals.compute_s, kClients * 0.5, 1e-6);
}

TEST(ObsLedger, StragglersRankedByWastedCompute) {
  ClientLedger ledger;
  for (std::uint64_t c = 0; c < 20; ++c)
    ledger.on_task_finished(c, LedgerOutcome::kStale, static_cast<double>(c), 0);
  auto s = ledger.summary(/*top_k=*/5);
  ASSERT_EQ(s.stragglers.size(), 5u);
  EXPECT_EQ(s.stragglers.front().client_id, 19u);
  for (std::size_t i = 1; i < s.stragglers.size(); ++i)
    EXPECT_GE(s.stragglers[i - 1].wasted_compute_s, s.stragglers[i].wasted_compute_s);
}

// ----------------------------------------------------- histogram quantiles

/// q-quantile of the registry's only series, read through its snapshot.
double only_quantile(const MetricRegistry& r, double q) {
  auto snap = r.snapshot();
  EXPECT_EQ(snap.size(), 1u);
  return snap.at(0).quantile(q);
}

TEST(ObsQuantile, EmptyHistogramIsZero) {
  MetricRegistry r;
  r.histogram("empty", 0.0, 10.0, 10);
  EXPECT_EQ(only_quantile(r, 0.5), 0.0);
  EXPECT_EQ(histogram_quantile(0.5, 0.0, 10.0, {0, 0, 0}), 0.0);
  EXPECT_EQ(histogram_quantile(0.5, 0.0, 10.0, {}), 0.0);
}

TEST(ObsQuantile, UniformSamplesInterpolateLinearly) {
  MetricRegistry r;
  auto& h = r.histogram("lat", 0.0, 10.0, 10);
  // 100 samples spread uniformly over [0, 10): 10 per unit-wide bucket.
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i) * 0.1);
  EXPECT_NEAR(only_quantile(r, 0.50), 5.0, 1e-12);
  EXPECT_NEAR(only_quantile(r, 0.95), 9.5, 1e-12);
  EXPECT_NEAR(only_quantile(r, 0.99), 9.9, 1e-12);
  // Quantiles are monotone in q.
  EXPECT_LE(only_quantile(r, 0.50), only_quantile(r, 0.95));
  EXPECT_LE(only_quantile(r, 0.95), only_quantile(r, 0.99));
}

TEST(ObsQuantile, EstimatesClampToConfiguredRange) {
  MetricRegistry r;
  auto& h = r.histogram("spiky", 0.0, 10.0, 10);
  for (int i = 0; i < 50; ++i) h.record(1e6);  // far beyond hi: edge bucket
  h.record(-5.0);                              // below lo: first bucket
  EXPECT_LE(only_quantile(r, 0.99), 10.0);
  EXPECT_GE(only_quantile(r, 0.01), 0.0);
}

TEST(ObsQuantile, SampleQuantileMatchesLiveHistogram) {
  MetricRegistry r;
  auto& h = r.histogram("dur", 0.0, 4.0, 8);
  for (int i = 0; i < 40; ++i) h.record(static_cast<double>(i % 4) + 0.25);
  auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].kind, MetricSample::Kind::kHistogram);
  std::vector<std::uint64_t> live(h.bucket_count());
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = h.bucket(i);
  for (double q : {0.5, 0.95, 0.99})
    EXPECT_NEAR(snap[0].quantile(q), histogram_quantile(q, h.lo(), h.hi(), live), 1e-12) << q;
}

TEST(ObsQuantile, NonHistogramSamplesReadZero) {
  MetricRegistry r;
  r.counter("c").add(100);
  r.gauge("g").set(3.0);
  for (const auto& s : r.snapshot()) EXPECT_EQ(s.quantile(0.95), 0.0) << s.name;
}

TEST(ObsTrace, ChromeTraceParsesBack) {
  Tracer tracer;
  tracer.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    Tracer::SpanToken token = tracer.begin_span(/*virtual_now_s=*/i * 1.0);
    tracer.end_span(token, /*virtual_now_s=*/i * 1.0 + 0.5, "round \"x\"", "fl");
  }
  EXPECT_EQ(tracer.event_count(), 5u);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text.substr(0, 400);
  // Dual-clock export: every span appears on the wall track and the
  // virtual track, plus one process_name metadata event per track.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("wall clock"), std::string::npos);
  EXPECT_NE(text.find("virtual clock"), std::string::npos);
}

TEST(ObsTrace, DropsWhenFull) {
  Tracer tracer(/*max_events=*/2);
  tracer.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    Tracer::SpanToken token = tracer.begin_span(0.0);
    tracer.end_span(token, 1.0, "s", "t");
  }
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

TEST(ObsTrace, LabeledProcessDerivesUniqueTracksAndMetadata) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_process_info("executor-1", /*sort_index=*/1);
  tracer.set_clock_offset_us(123.5);
  Tracer::SpanToken token = tracer.begin_span(0.0);
  tracer.end_span(token, 1.0, "labeled", "test");
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text.substr(0, 400);
  // Labeled tracks carry the role in their names and pids derived from the
  // OS pid (never the single-process defaults 1/2), so merged traces cannot
  // collide across processes.
  EXPECT_NE(text.find("executor-1 wall clock"), std::string::npos);
  EXPECT_NE(text.find("executor-1 virtual clock"), std::string::npos);
  EXPECT_EQ(text.find("\"pid\":1,"), std::string::npos) << text.substr(0, 400);
  EXPECT_EQ(text.find("\"pid\":2,"), std::string::npos) << text.substr(0, 400);
  // The merge tool reads its alignment inputs from the trailing flint object.
  EXPECT_NE(text.find("\"flint\":{\"role\":\"executor-1\""), std::string::npos);
  EXPECT_NE(text.find("\"clock_offset_us\":123.5"), std::string::npos);
  EXPECT_DOUBLE_EQ(tracer.clock_offset_us(), 123.5);
}

TEST(ObsTrace, MintedSpanIdsStartAtBaseAndSerialize) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_span_id_base(std::uint64_t{5} << 32);
  const std::uint64_t first = tracer.mint_span_id();
  const std::uint64_t second = tracer.mint_span_id();
  EXPECT_EQ(first, (std::uint64_t{5} << 32) + 1);
  EXPECT_EQ(second, first + 1);

  Tracer::SpanToken token = tracer.begin_span(0.0);
  tracer.end_span(token, 0.0, "ided", "test", /*trace_id=*/77, /*span_id=*/first,
                  /*parent_span_id=*/3);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"trace_id\":77"), std::string::npos) << text.substr(0, 400);
  EXPECT_NE(text.find("\"span_id\":" + std::to_string(first)), std::string::npos);
  EXPECT_NE(text.find("\"parent_span_id\":3"), std::string::npos);
  ASSERT_EQ(tracer.events_snapshot().size(), 1u);
  EXPECT_EQ(tracer.events_snapshot()[0].span_id, first);
}

// -------------------------------------------------------------- Telemetry

TEST(ObsTelemetry, DisabledTracingProducesNoFile) {
  const fs::path out = fs::temp_directory_path() / "flint_obs_disabled_trace.json";
  fs::remove(out);
  TelemetryConfig config;
  config.tracing_enabled = false;
  Telemetry telemetry(config);
  {
    ScopedTelemetry scope(&telemetry);
    FLINT_TRACE_SPAN("never.recorded", "test");
    obs::advance_virtual_time(1.0);
  }
  EXPECT_EQ(telemetry.tracer().event_count(), 0u);
  EXPECT_FALSE(telemetry.write_trace(out.string()));
  EXPECT_FALSE(fs::exists(out));
}

TEST(ObsTelemetry, NoAmbientContextIsANoOp) {
  ASSERT_EQ(current(), nullptr);
  // None of these may crash or allocate a registry out of thin air.
  add_counter("ghost");
  record_histogram("ghost.h", 1.0, 0.0, 10.0, 10);
  advance_virtual_time(42.0);
  FLINT_TRACE_SPAN("ghost.span", "test");
}

TEST(ObsTelemetry, SpanMacroRecordsDualClocks) {
  TelemetryConfig config;
  Telemetry telemetry(config);
  {
    ScopedTelemetry scope(&telemetry);
    telemetry.set_virtual_now(10.0);
    {
      FLINT_TRACE_SPAN("timed", "test");
      telemetry.set_virtual_now(12.0);
    }
  }
  EXPECT_EQ(telemetry.tracer().event_count(), 1u);
  std::ostringstream os;
  telemetry.tracer().write_chrome_trace(os);
  // Virtual duration 2s -> 2e6 virtual-track microseconds.
  EXPECT_NE(os.str().find("\"virtual_dur_s\":2"), std::string::npos) << os.str();
}

TEST(ObsTelemetry, CachedHandlesSurviveContextSwap) {
  CachedCounter cached;
  {
    TelemetryConfig config;
    Telemetry first(config);
    ScopedTelemetry scope(&first);
    ASSERT_NE(cached.resolve("swap.counter"), nullptr);
    cached.resolve("swap.counter")->add(1);
    EXPECT_EQ(first.metrics().counter("swap.counter").value(), 1u);
  }
  // First telemetry is gone; the cache must re-resolve, not dangle.
  EXPECT_EQ(cached.resolve("swap.counter"), nullptr);
  TelemetryConfig config;
  Telemetry second(config);
  ScopedTelemetry scope(&second);
  ASSERT_NE(cached.resolve("swap.counter"), nullptr);
  cached.resolve("swap.counter")->add(5);
  EXPECT_EQ(second.metrics().counter("swap.counter").value(), 5u);
}

TEST(ObsTelemetry, VirtualTimeSnapshotCadence) {
  TelemetryConfig config;
  config.snapshot_every_virtual_s = 100.0;
  Telemetry telemetry(config);
  ScopedTelemetry scope(&telemetry);
  add_counter("cadence.counter");
  advance_virtual_time(50.0);   // before first boundary
  EXPECT_EQ(telemetry.snapshot_row_count(), 0u);
  advance_virtual_time(150.0);  // crosses 100
  EXPECT_EQ(telemetry.snapshot_row_count(), 1u);
  advance_virtual_time(450.0);  // crosses 200,300,400 -> one catch-up snapshot
  EXPECT_GE(telemetry.snapshot_row_count(), 2u);
}

TEST(ObsTelemetry, MetricsJsonlRoundTrip) {
  const fs::path out = fs::temp_directory_path() / "flint_obs_metrics.jsonl";
  fs::remove(out);
  TelemetryConfig config;
  Telemetry telemetry(config);
  {
    ScopedTelemetry scope(&telemetry);
    add_counter("file.counter", 2);
    record_histogram("file.hist", 3.0, 0.0, 10.0, 5);
    telemetry.set_virtual_now(7.0);
  }
  // write_metrics_jsonl takes the final snapshot itself: 1 snapshot x 2 series.
  ASSERT_TRUE(telemetry.write_metrics_jsonl(out.string()));
  std::istringstream lines(read_file(out));
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++n;
  }
  EXPECT_EQ(n, 2u);
  fs::remove(out);
}

// --------------------------------------------------------- status stream

TEST(ObsStatus, ReporterWritesValidFleetLines) {
  const fs::path out = fs::temp_directory_path() / "flint_obs_status.jsonl";
  fs::remove(out);
  TelemetryConfig config;
  config.status_out = out.string();
  Telemetry telemetry(config);
  {
    ScopedTelemetry scope(&telemetry);
    set_gauge("fl.round", 3.0);
    set_gauge("fl.tasks_in_flight", 5.0);
    set_gauge("rpc.executor.0.alive", 1.0);
    set_gauge("rpc.executor.0.outstanding", 2.0);
    set_gauge("rpc.executor.1.alive", 0.0);
    add_counter("rpc.leases_served", 17);
    telemetry.maybe_status_line(/*force=*/true);
  }
  ASSERT_NE(telemetry.status(), nullptr);
  EXPECT_GE(telemetry.status()->lines_written(), std::size_t{1});

  std::istringstream lines(read_file(out));
  std::string line;
  std::string last;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    last = line;
  }
  ASSERT_FALSE(last.empty());
  EXPECT_NE(last.find("\"round\":3"), std::string::npos) << last;
  EXPECT_NE(last.find("\"tasks_in_flight\":5"), std::string::npos) << last;
  EXPECT_NE(last.find("\"executors_alive\":1"), std::string::npos) << last;
  EXPECT_NE(last.find("\"executors_lost\":1"), std::string::npos) << last;
  EXPECT_NE(last.find("\"updates_total\":17"), std::string::npos) << last;
  EXPECT_NE(last.find("\"executors\":["), std::string::npos) << last;
  fs::remove(out);
}

TEST(ObsStatus, ReporterHonorsWallCadence) {
  const fs::path out = fs::temp_directory_path() / "flint_obs_status_cadence.jsonl";
  fs::remove(out);
  TelemetryConfig config;
  config.status_out = out.string();
  config.status_every_wall_s = 3600.0;  // nothing non-forced after the first line
  Telemetry telemetry(config);
  ScopedTelemetry scope(&telemetry);
  telemetry.maybe_status_line();  // first call always reports
  telemetry.maybe_status_line();  // inside the hour window: suppressed
  ASSERT_NE(telemetry.status(), nullptr);
  EXPECT_EQ(telemetry.status()->lines_written(), std::size_t{1});
  telemetry.maybe_status_line(/*force=*/true);
  EXPECT_EQ(telemetry.status()->lines_written(), std::size_t{2});
  fs::remove(out);
}

TEST(ObsStatus, DisabledWithoutPathOrMetrics) {
  TelemetryConfig no_path;
  Telemetry a(no_path);
  EXPECT_EQ(a.status(), nullptr);
  a.maybe_status_line(/*force=*/true);  // must be a safe no-op

  TelemetryConfig no_metrics;
  no_metrics.status_out =
      (fs::temp_directory_path() / "flint_obs_status_off.jsonl").string();
  no_metrics.metrics_enabled = false;
  Telemetry b(no_metrics);
  EXPECT_EQ(b.status(), nullptr);
}

}  // namespace
}  // namespace flint::obs
