// Randomized invariant tests for the FL runners: across arbitrary
// configurations, the system-metric accounting must balance and round
// records must be consistent.
#include <gtest/gtest.h>

#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"
#include "test_helpers.h"

namespace flint::fl {
namespace {

struct RandomSetup {
  std::vector<std::uint32_t> counts;
  std::vector<device::AvailabilityWindow> windows;
  device::DeviceCatalog catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  std::size_t clients = 0;
};

RandomSetup random_setup(util::Rng& rng) {
  RandomSetup s;
  s.clients = static_cast<std::size_t>(rng.uniform_int(50, 400));
  s.counts.resize(s.clients);
  for (auto& c : s.counts) c = static_cast<std::uint32_t>(rng.uniform_int(1, 400));
  for (std::size_t c = 0; c < s.clients; ++c) {
    double start = rng.uniform(0.0, 500.0);
    int windows = static_cast<int>(rng.uniform_int(1, 4));
    for (int w = 0; w < windows; ++w) {
      double len = rng.uniform(30.0, 5000.0);
      s.windows.push_back({c, s.catalog.sample_device(rng), start, start + len});
      start += len + rng.uniform(100.0, 5000.0);
    }
  }
  return s;
}

RunInputs random_inputs(const RandomSetup& s, const device::AvailabilityTrace& trace,
                        util::Rng& rng) {
  RunInputs in;
  in.model_free = true;
  in.client_example_counts = &s.counts;
  in.trace = &trace;
  in.catalog = &s.catalog;
  in.bandwidth = &s.bandwidth;
  in.duration.base_time_per_example_s = rng.uniform(0.001, 0.1);
  in.duration.update_bytes = static_cast<std::uint64_t>(rng.uniform_int(10'000, 2'000'000));
  in.duration.local_epochs = static_cast<int>(rng.uniform_int(1, 4));
  in.max_rounds = static_cast<std::uint64_t>(rng.uniform_int(3, 40));
  in.reparticipation_gap_s = rng.uniform(0.0, 2000.0);
  in.seed = rng.next_u64();
  return in;
}

void check_common_invariants(const RunResult& r, std::uint64_t max_rounds) {
  const sim::SimMetrics& m = r.metrics;
  // Accounting balances: every started task ends in exactly one bucket.
  EXPECT_EQ(m.tasks_started(),
            m.tasks_succeeded() + m.tasks_interrupted() + m.tasks_stale() + m.tasks_failed());
  EXPECT_LE(r.rounds, max_rounds);
  EXPECT_EQ(r.rounds, m.rounds().size());
  EXPECT_GE(m.client_compute_s(), 0.0);
  EXPECT_GE(r.virtual_duration_s, 0.0);
  // Round records are time-ordered with non-negative durations, and their
  // update counts never exceed the succeeded-task total.
  std::uint64_t aggregated = 0;
  for (std::size_t i = 0; i < m.rounds().size(); ++i) {
    EXPECT_LE(m.rounds()[i].start, m.rounds()[i].end);
    if (i > 0) {
      EXPECT_LE(m.rounds()[i - 1].end, m.rounds()[i].end);
    }
    EXPECT_EQ(m.rounds()[i].round, i + 1);
    aggregated += m.rounds()[i].updates_aggregated;
  }
  EXPECT_LE(aggregated, m.tasks_succeeded());
}

class FedBuffInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FedBuffInvariantTest, AccountingBalancesForRandomConfigs) {
  util::Rng rng(GetParam());
  RandomSetup s = random_setup(rng);
  device::AvailabilityTrace trace(s.windows);
  AsyncConfig cfg;
  cfg.inputs = random_inputs(s, trace, rng);
  cfg.buffer_size = static_cast<std::size_t>(rng.uniform_int(1, 30));
  cfg.max_concurrency = static_cast<std::size_t>(rng.uniform_int(1, 200));
  cfg.max_staleness = static_cast<std::uint64_t>(rng.uniform_int(0, 50));
  RunResult r = run_fedbuff(cfg);
  check_common_invariants(r, cfg.inputs.max_rounds);
  // FedBuff: every completed round aggregated exactly buffer_size updates.
  for (const auto& round : r.metrics.rounds())
    EXPECT_EQ(round.updates_aggregated, cfg.buffer_size);
  // Succeeded tasks beyond full buffers stay below one extra buffer.
  EXPECT_LE(r.metrics.tasks_succeeded(), (r.rounds + 1) * cfg.buffer_size);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedBuffInvariantTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u));

class FedAvgInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FedAvgInvariantTest, AccountingBalancesForRandomConfigs) {
  util::Rng rng(GetParam() * 1000003);
  RandomSetup s = random_setup(rng);
  device::AvailabilityTrace trace(s.windows);
  SyncConfig cfg;
  cfg.inputs = random_inputs(s, trace, rng);
  cfg.cohort_size = static_cast<std::size_t>(rng.uniform_int(1, 25));
  cfg.overcommit = rng.uniform(1.0, 2.0);
  cfg.round_deadline_s = rng.uniform(100.0, 20000.0);
  RunResult r = run_fedavg(cfg);
  check_common_invariants(r, cfg.inputs.max_rounds);
  // Rounds never aggregate more than the cohort size, never zero, and
  // never outlive the deadline.
  for (const auto& round : r.metrics.rounds()) {
    EXPECT_GE(round.updates_aggregated, 1u);
    EXPECT_LE(round.updates_aggregated, cfg.cohort_size);
    EXPECT_LE(round.duration_s(), cfg.round_deadline_s + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedAvgInvariantTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(RunnerEquivalence, SameUpdateTargetsSameSuccessCounts) {
  // Both runners configured for the same total update budget should deliver
  // the same number of aggregated updates (the convergence proxy used by
  // the Table 3 bench).
  util::Rng rng(9001);
  RandomSetup s = random_setup(rng);
  std::uint64_t rounds = 10;
  std::size_t k = 8;

  device::AvailabilityTrace trace_a(s.windows);
  AsyncConfig async_cfg;
  async_cfg.inputs = random_inputs(s, trace_a, rng);
  async_cfg.inputs.max_rounds = rounds;
  async_cfg.inputs.reparticipation_gap_s = 0.0;
  async_cfg.buffer_size = k;
  async_cfg.max_concurrency = 50;
  async_cfg.max_staleness = 1000;
  RunResult async_r = run_fedbuff(async_cfg);

  device::AvailabilityTrace trace_b(s.windows);
  SyncConfig sync_cfg;
  sync_cfg.inputs = async_cfg.inputs;
  sync_cfg.inputs.trace = &trace_b;
  sync_cfg.cohort_size = k;
  sync_cfg.overcommit = 1.0;
  sync_cfg.round_deadline_s = 1e9;
  RunResult sync_r = run_fedavg(sync_cfg);

  if (async_r.rounds == rounds && sync_r.rounds == rounds) {
    std::uint64_t async_updates = 0, sync_updates = 0;
    for (const auto& round : async_r.metrics.rounds()) async_updates += round.updates_aggregated;
    for (const auto& round : sync_r.metrics.rounds()) sync_updates += round.updates_aggregated;
    EXPECT_EQ(async_updates, rounds * k);
    EXPECT_EQ(sync_updates, rounds * k);
  }
}

}  // namespace
}  // namespace flint::fl
