#include "flint/fl/fedbuff.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "flint/fl/fedavg.h"
#include "test_helpers.h"

namespace flint::fl {
namespace {

AsyncConfig model_free_config(const device::AvailabilityTrace& trace,
                              const device::DeviceCatalog& catalog,
                              const net::BandwidthModel& bandwidth,
                              const std::vector<std::uint32_t>& counts) {
  AsyncConfig cfg;
  cfg.inputs.model_free = true;
  cfg.inputs.client_example_counts = &counts;
  cfg.inputs.trace = &trace;
  cfg.inputs.catalog = &catalog;
  cfg.inputs.bandwidth = &bandwidth;
  cfg.inputs.duration.base_time_per_example_s = 0.05;
  cfg.inputs.duration.update_bytes = 100'000;
  cfg.inputs.reparticipation_gap_s = 0.0;
  cfg.inputs.max_rounds = 10;
  cfg.buffer_size = 4;
  cfg.max_concurrency = 8;
  cfg.max_staleness = 100;
  return cfg;
}

TEST(FedBuff, ModelFreeReachesTargetAggregations) {
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  auto trace = test::always_available(50, 1e7);
  std::vector<std::uint32_t> counts(50, 20);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  RunResult r = run_fedbuff(cfg);
  EXPECT_EQ(r.rounds, 10u);
  EXPECT_EQ(r.metrics.aggregations(), 10u);
  // Each aggregation consumed buffer_size updates.
  EXPECT_GE(r.metrics.tasks_succeeded(), 10u * 4u);
  EXPECT_GT(r.virtual_duration_s, 0.0);
}

TEST(FedBuff, DeterministicForSameSeed) {
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  auto trace_a = test::staggered_trace(80, 4000.0, 30.0);
  auto trace_b = test::staggered_trace(80, 4000.0, 30.0);
  std::vector<std::uint32_t> counts(80, 25);
  auto cfg_a = model_free_config(trace_a, catalog, bw, counts);
  auto cfg_b = model_free_config(trace_b, catalog, bw, counts);
  cfg_a.inputs.seed = cfg_b.inputs.seed = 123;
  RunResult a = run_fedbuff(cfg_a);
  RunResult b = run_fedbuff(cfg_b);
  EXPECT_DOUBLE_EQ(a.virtual_duration_s, b.virtual_duration_s);
  EXPECT_EQ(a.metrics.tasks_started(), b.metrics.tasks_started());
  EXPECT_EQ(a.metrics.tasks_stale(), b.metrics.tasks_stale());
}

TEST(FedBuff, RoundRecordsTrackBufferFills) {
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  auto trace = test::always_available(40, 1e7);
  std::vector<std::uint32_t> counts(40, 20);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  RunResult r = run_fedbuff(cfg);
  ASSERT_EQ(r.metrics.rounds().size(), 10u);
  for (const auto& round : r.metrics.rounds()) {
    EXPECT_EQ(round.updates_aggregated, 4u);
    EXPECT_GE(round.end, round.start);
  }
  EXPECT_GT(r.metrics.mean_round_duration_s(), 0.0);
}

TEST(FedBuff, ShortWindowsProduceInterruptions) {
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  auto trace = test::staggered_trace(60, 20.0, 5.0);  // 20s windows
  std::vector<std::uint32_t> counts(60, 2000);        // ~100s tasks
  auto cfg = model_free_config(trace, catalog, bw, counts);
  cfg.inputs.max_rounds = 2;
  RunResult r = run_fedbuff(cfg);
  EXPECT_GT(r.metrics.tasks_interrupted(), 0u);
  EXPECT_EQ(r.rounds, 0u);  // nothing completes
}

TEST(FedBuff, TightStalenessDiscardsUpdates) {
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  auto trace = test::always_available(100, 1e7);
  // Heterogeneous partition sizes: some clients are 50x slower, so their
  // updates arrive many versions late.
  std::vector<std::uint32_t> counts(100);
  for (std::size_t i = 0; i < 100; ++i) counts[i] = (i % 5 == 0) ? 1000 : 20;
  auto cfg = model_free_config(trace, catalog, bw, counts);
  cfg.inputs.max_rounds = 40;
  cfg.max_concurrency = 60;
  cfg.max_staleness = 0;  // only perfectly fresh updates accepted
  RunResult strict = run_fedbuff(cfg);
  cfg.max_staleness = 1000;
  cfg.inputs.seed = 1;  // same seed; staleness is the only change
  RunResult loose = run_fedbuff(cfg);
  EXPECT_GT(strict.metrics.tasks_stale(), loose.metrics.tasks_stale());
}

TEST(FedBuff, HigherConcurrencyMoreStaleness) {
  // Figure 8's trend: higher concurrency -> more stale tasks.
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  std::vector<std::uint32_t> counts(300, 40);
  auto run_with_concurrency = [&](std::size_t concurrency) {
    auto trace = test::always_available(300, 1e7);
    auto cfg = model_free_config(trace, catalog, bw, counts);
    cfg.inputs.max_rounds = 30;
    cfg.buffer_size = 5;
    cfg.max_staleness = 3;
    cfg.max_concurrency = concurrency;
    return run_fedbuff(cfg);
  };
  RunResult low = run_with_concurrency(10);
  RunResult high = run_with_concurrency(150);
  EXPECT_GT(high.metrics.tasks_stale(), low.metrics.tasks_stale());
}

TEST(FedBuff, CheckpointsWrittenAtCadence) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "flint_fedbuff_ckpt";
  fs::remove_all(dir);
  store::CheckpointStore ckpt(dir.string());

  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  auto trace = test::always_available(40, 1e7);
  std::vector<std::uint32_t> counts(40, 20);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  cfg.inputs.leader.checkpoint_every_rounds = 3;
  cfg.inputs.leader.checkpoint_store = &ckpt;
  RunResult r = run_fedbuff(cfg);
  EXPECT_EQ(r.rounds, 10u);
  EXPECT_EQ(ckpt.checkpoint_count(), 3u);  // rounds 3, 6, 9
  auto latest = ckpt.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 9u);
  fs::remove_all(dir);
}

TEST(FedBuff, RealTrainingImprovesMetric) {
  util::Rng rng(11);
  auto task = test::small_task(rng, 60);
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(60, 1e9);
  auto model = task.make_model(rng);
  double before = task.evaluate(*model);

  AsyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 30;
  cfg.inputs.local.lr = 0.1;
  cfg.inputs.client_lr = LrSchedule::constant(0.1);
  cfg.buffer_size = 6;
  cfg.max_concurrency = 12;
  RunResult r = run_fedbuff(cfg);
  EXPECT_EQ(r.rounds, 30u);
  EXPECT_GT(r.final_metric, before + 0.1);
}

TEST(FedBuff, FasterThanFedAvgUnderHeavyTails) {
  // Table 3's headline: async pipelining wins when task durations are
  // heavy-tailed. Same universe, same target update count.
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  util::Rng rng(13);
  std::vector<std::uint32_t> counts(400);
  for (auto& c : counts)
    c = static_cast<std::uint32_t>(std::min(2000.0, std::max(5.0, rng.lognormal(3.0, 1.5))));

  std::uint64_t target_updates = 100;
  auto trace_async = test::always_available(400, 1e9);
  AsyncConfig async_cfg = model_free_config(trace_async, catalog, bw, counts);
  async_cfg.buffer_size = 10;
  async_cfg.inputs.max_rounds = target_updates / 10;
  async_cfg.max_concurrency = 40;
  RunResult async_r = run_fedbuff(async_cfg);

  auto trace_sync = test::always_available(400, 1e9);
  SyncConfig sync_cfg;
  sync_cfg.inputs = async_cfg.inputs;
  sync_cfg.inputs.trace = &trace_sync;
  sync_cfg.cohort_size = 10;
  sync_cfg.inputs.max_rounds = target_updates / 10;
  sync_cfg.overcommit = 1.3;
  sync_cfg.round_deadline_s = 1e8;
  RunResult sync_r = run_fedavg(sync_cfg);

  ASSERT_EQ(async_r.rounds, sync_cfg.inputs.max_rounds);
  ASSERT_EQ(sync_r.rounds, sync_cfg.inputs.max_rounds);
  EXPECT_LT(async_r.virtual_duration_s, sync_r.virtual_duration_s);
}

/// Value of the named counter/gauge (histogram: sample count) in a run's
/// telemetry snapshot; fails the test and returns -1 when it is missing.
double series(const RunResult& r, const std::string& name) {
  for (const auto& s : r.telemetry)
    if (s.name == name)
      return s.kind == obs::MetricSample::Kind::kHistogram ? static_cast<double>(s.count)
                                                           : s.value;
  ADD_FAILURE() << "no telemetry series " << name;
  return -1.0;
}

TEST(RunnerTelemetry, BothRunnersEmitTheSameRoundAndDispatchSeries) {
  // One set of runner series, whatever the scheduling policy: rounds and
  // dispatched tasks are counted by the shared run core, so the counters
  // reconcile with the result for FedAvg and FedBuff alike. Over-commitment
  // (FedAvg) and tasks still in flight at the last aggregation (FedBuff)
  // make stragglers, so dispatched != aggregated.
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  std::vector<std::uint32_t> counts(80, 25);
  for (bool fedbuff : {false, true}) {
    SCOPED_TRACE(fedbuff ? "fedbuff" : "fedavg");
    auto trace = test::always_available(80, 1e7);
    obs::TelemetryConfig telemetry_config;
    telemetry_config.tracing_enabled = false;
    obs::Telemetry telemetry(telemetry_config);
    AsyncConfig async_cfg = model_free_config(trace, catalog, bw, counts);
    async_cfg.inputs.telemetry = &telemetry;
    async_cfg.max_concurrency = 16;
    RunResult r;
    if (fedbuff) {
      r = run_fedbuff(async_cfg);
    } else {
      SyncConfig sync_cfg;
      sync_cfg.inputs = async_cfg.inputs;
      sync_cfg.cohort_size = 4;
      r = run_fedavg(sync_cfg);
    }
    ASSERT_GT(r.rounds, 0u);
    ASSERT_GT(r.metrics.tasks_started(), r.metrics.tasks_succeeded());
    EXPECT_EQ(series(r, "fl.rounds"), static_cast<double>(r.rounds));
    EXPECT_EQ(series(r, "fl.round"), static_cast<double>(r.rounds));
    EXPECT_EQ(series(r, "fl.round_duration_s"), static_cast<double>(r.rounds));
    EXPECT_EQ(series(r, "fl.tasks_dispatched"), static_cast<double>(r.metrics.tasks_started()));
  }
}

TEST(FedBuff, ValidationRejectsBadConfig) {
  AsyncConfig cfg;
  EXPECT_THROW(run_fedbuff(cfg), util::CheckError);
}

}  // namespace
}  // namespace flint::fl
