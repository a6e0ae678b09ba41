#include "flint/fl/fedavg.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace flint::fl {
namespace {

/// Model-free sync config over a counts-only universe.
SyncConfig model_free_config(const device::AvailabilityTrace& trace,
                             const device::DeviceCatalog& catalog,
                             const net::BandwidthModel& bandwidth,
                             const std::vector<std::uint32_t>& counts) {
  SyncConfig cfg;
  cfg.inputs.model_free = true;
  cfg.inputs.client_example_counts = &counts;
  cfg.inputs.trace = &trace;
  cfg.inputs.catalog = &catalog;
  cfg.inputs.bandwidth = &bandwidth;
  cfg.inputs.duration.base_time_per_example_s = 0.05;
  cfg.inputs.duration.update_bytes = 100'000;
  cfg.inputs.reparticipation_gap_s = 0.0;
  cfg.inputs.max_rounds = 5;
  cfg.cohort_size = 5;
  cfg.overcommit = 1.4;
  cfg.round_deadline_s = 3600.0;
  return cfg;
}

TEST(FedAvg, ModelFreeRunsToMaxRounds) {
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  auto trace = test::always_available(40, 1e7);
  std::vector<std::uint32_t> counts(40, 20);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  RunResult r = run_fedavg(cfg);
  EXPECT_EQ(r.rounds, 5u);
  EXPECT_EQ(r.metrics.rounds().size(), 5u);
  // Over-commitment: 7 dispatched per round, 5 aggregated, 2 stragglers.
  EXPECT_EQ(r.metrics.tasks_started(), 5u * 7u);
  EXPECT_EQ(r.metrics.tasks_succeeded(), 25u);
  EXPECT_EQ(r.metrics.tasks_stale(), 10u);
  EXPECT_GT(r.metrics.client_compute_s(), 0.0);
  EXPECT_GT(r.virtual_duration_s, 0.0);
}

TEST(FedAvg, DeterministicForSameSeed) {
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  auto trace_a = test::staggered_trace(60, 5000.0, 60.0);
  auto trace_b = test::staggered_trace(60, 5000.0, 60.0);
  std::vector<std::uint32_t> counts(60, 15);
  auto cfg_a = model_free_config(trace_a, catalog, bw, counts);
  auto cfg_b = model_free_config(trace_b, catalog, bw, counts);
  cfg_a.inputs.seed = cfg_b.inputs.seed = 99;
  RunResult a = run_fedavg(cfg_a);
  RunResult b = run_fedavg(cfg_b);
  EXPECT_DOUBLE_EQ(a.virtual_duration_s, b.virtual_duration_s);
  EXPECT_EQ(a.metrics.tasks_started(), b.metrics.tasks_started());
  EXPECT_EQ(a.metrics.tasks_stale(), b.metrics.tasks_stale());
}

TEST(FedAvg, ShortWindowsCauseInterruptions) {
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  // Windows of 30s; tasks need 0.05s * 20000 examples = 1000s of compute
  // even on the fastest device, so every dispatch is cut off by window end.
  auto trace = test::staggered_trace(50, 30.0, 10.0);
  std::vector<std::uint32_t> counts(50, 20000);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  cfg.inputs.max_rounds = 3;
  RunResult r = run_fedavg(cfg);
  EXPECT_GT(r.metrics.tasks_interrupted(), 0u);
  EXPECT_EQ(r.metrics.tasks_succeeded(), 0u);  // nothing can finish
  EXPECT_EQ(r.rounds, 0u);
}

TEST(FedAvg, DeadlineBoundsRoundDuration) {
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  auto trace = test::always_available(30, 1e7);
  std::vector<std::uint32_t> counts(30, 50);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  cfg.round_deadline_s = 10.0;  // tasks need ~2.5s+ so some may miss
  cfg.inputs.max_rounds = 4;
  RunResult r = run_fedavg(cfg);
  for (const auto& round : r.metrics.rounds())
    EXPECT_LE(round.duration_s(), 10.0 + 1e-9);
}

TEST(FedAvg, ExecutorOutageDelaysDispatch) {
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  auto trace = test::always_available(30, 1e7);
  std::vector<std::uint32_t> counts(30, 20);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  cfg.inputs.max_rounds = 1;
  cfg.inputs.outages.push_back({0, 0.0, 500.0});  // all dispatch halts until 500
  RunResult r = run_fedavg(cfg);
  ASSERT_EQ(r.rounds, 1u);
  EXPECT_GE(r.metrics.rounds()[0].start, 500.0);
}

TEST(FedAvg, RealTrainingImprovesMetric) {
  util::Rng rng(7);
  auto task = test::small_task(rng, 60);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(60, 1e9);
  auto model = task.make_model(rng);
  double before = task.evaluate(*model);

  SyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 25;
  cfg.inputs.local.lr = 0.1;
  cfg.inputs.client_lr = LrSchedule::constant(0.1);
  cfg.cohort_size = 8;
  cfg.round_deadline_s = 1e6;
  RunResult r = run_fedavg(cfg);
  EXPECT_EQ(r.rounds, 25u);
  EXPECT_GT(r.final_metric, before + 0.1);
  EXPECT_FALSE(r.final_parameters.empty());
  EXPECT_FALSE(r.eval_curve.empty());
}

TEST(FedAvg, DpRunCompletesWithReasonableMetric) {
  util::Rng rng(8);
  auto task = test::small_task(rng, 50);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(50, 1e9);
  auto model = task.make_model(rng);

  SyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 10;
  privacy::DpConfig dp;
  dp.clip_norm = 1.0;
  dp.noise_multiplier = 0.3;
  cfg.inputs.dp = dp;
  cfg.cohort_size = 8;
  cfg.round_deadline_s = 1e6;
  RunResult r = run_fedavg(cfg);
  EXPECT_EQ(r.rounds, 10u);
  EXPECT_GT(r.final_metric, 0.0);
  EXPECT_LE(r.final_metric, 1.0);
}

TEST(FedAvg, EvalCadenceProducesCurve) {
  util::Rng rng(9);
  auto task = test::small_task(rng, 40);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(40, 1e9);
  auto model = task.make_model(rng);

  SyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 6;
  cfg.inputs.eval_every_rounds = 2;
  cfg.cohort_size = 5;
  cfg.round_deadline_s = 1e6;
  RunResult r = run_fedavg(cfg);
  EXPECT_GE(r.eval_curve.size(), 3u);
  for (std::size_t i = 1; i < r.eval_curve.size(); ++i)
    EXPECT_GE(r.eval_curve[i].round, r.eval_curve[i - 1].round);
}

TEST(FedAvg, ValidationRejectsMissingInputs) {
  SyncConfig cfg;
  EXPECT_THROW(run_fedavg(cfg), util::CheckError);
}

}  // namespace
}  // namespace flint::fl
