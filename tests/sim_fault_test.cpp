// Fault-tolerance integration: the async runner under executor outages and
// random fault plans (§3.4: "the leader node halts dispatching tasks until
// all executors have pinged it with a healthy status-code"; recovery loses
// at most one checkpoint cadence).
#include <gtest/gtest.h>

#include <filesystem>

#include "flint/fl/fedbuff.h"
#include "flint/sim/fault_injector.h"
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
  return cfg;
}

TEST(FedBuffFaults, OutageHaltsDispatchUntilAllHealthy) {
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  std::vector<std::uint32_t> counts(40, 20);

  auto trace_a = test::always_available(40, 1e7);
  auto healthy_cfg = model_free_config(trace_a, catalog, bw, counts);
  RunResult healthy = run_fedbuff(healthy_cfg);

  auto trace_b = test::always_available(40, 1e7);
  auto outage_cfg = model_free_config(trace_b, catalog, bw, counts);
  outage_cfg.inputs.outages.push_back({0, 0.0, 1000.0});  // one sick executor
  RunResult delayed = run_fedbuff(outage_cfg);

  ASSERT_EQ(healthy.rounds, 10u);
  ASSERT_EQ(delayed.rounds, 10u);
  // No dispatch can happen before the outage clears.
  EXPECT_GE(delayed.metrics.rounds().front().end, 1000.0);
  EXPECT_GT(delayed.virtual_duration_s, healthy.virtual_duration_s + 900.0);
}

TEST(FedBuffFaults, MidRunOutagePausesAggregations) {
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  std::vector<std::uint32_t> counts(40, 20);
  auto trace = test::always_available(40, 1e7);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  cfg.inputs.max_rounds = 30;
  // The outage must begin while the run is still in flight (rounds take
  // well under a second of virtual time each here).
  cfg.inputs.outages.push_back({1, 5.0, 2005.0});
  RunResult r = run_fedbuff(cfg);
  ASSERT_EQ(r.rounds, 30u);
  // There must be a gap of at least ~the outage length between some pair of
  // consecutive aggregations (in-flight tasks finish, then dispatch stalls).
  double max_gap = 0.0;
  const auto& rounds = r.metrics.rounds();
  for (std::size_t i = 1; i < rounds.size(); ++i)
    max_gap = std::max(max_gap, rounds[i].end - rounds[i - 1].end);
  EXPECT_GT(max_gap, 1500.0);
}

TEST(FedBuffFaults, RandomFaultPlanStillCompletes) {
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  std::vector<std::uint32_t> counts(60, 20);
  util::Rng rng(7);
  sim::FaultPlanConfig plan;
  plan.mean_time_between_failures_s = 600.0;
  plan.mean_outage_s = 120.0;
  plan.horizon_s = 4.0 * 3600.0;
  auto outages = sim::plan_faults(4, plan, rng);
  ASSERT_FALSE(outages.empty());

  auto trace = test::always_available(60, 1e7);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  cfg.inputs.max_rounds = 20;
  cfg.inputs.leader.executor_count = 4;
  cfg.inputs.outages = outages;
  RunResult r = run_fedbuff(cfg);
  // Self-healing: the job makes it through a fault-ridden schedule.
  EXPECT_EQ(r.rounds, 20u);
  const auto& m = r.metrics;
  EXPECT_EQ(m.tasks_started(),
            m.tasks_succeeded() + m.tasks_interrupted() + m.tasks_stale() + m.tasks_failed());
}

TEST(FedBuffFaults, CheckpointRecoveryAfterRandomFaults) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "flint_fault_ckpt";
  fs::remove_all(dir);
  store::CheckpointStore ckpt(dir.string());

  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  std::vector<std::uint32_t> counts(40, 20);
  auto trace = test::always_available(40, 1e7);
  auto cfg = model_free_config(trace, catalog, bw, counts);
  cfg.inputs.max_rounds = 12;
  cfg.inputs.outages.push_back({0, 100.0, 300.0});
  cfg.inputs.leader.checkpoint_every_rounds = 2;
  cfg.inputs.leader.checkpoint_store = &ckpt;
  RunResult r = run_fedbuff(cfg);
  ASSERT_EQ(r.rounds, 12u);
  auto latest = ckpt.latest();
  ASSERT_TRUE(latest.has_value());
  // With cadence 2, recovery loses at most 2 rounds of work.
  EXPECT_GE(latest->round, r.rounds - 2);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace flint::fl
