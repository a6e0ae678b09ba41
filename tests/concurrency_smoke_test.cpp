// Threaded smoke coverage for the pieces that must tolerate concurrency:
// parallel model-free FedBuff runs (independent leaders, shared nothing) and
// concurrent checkpoint writes into one CheckpointStore. This is the test set
// scripts/run_sanitizers.sh --fast thread builds under TSan, so keep it quick.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "flint/fl/fedbuff.h"
#include "flint/store/checkpoint.h"
#include "test_helpers.h"

namespace flint {
namespace {

fl::AsyncConfig smoke_config(const device::AvailabilityTrace& trace,
                             const device::DeviceCatalog& catalog,
                             const net::BandwidthModel& bandwidth,
                             const std::vector<std::uint32_t>& counts) {
  fl::AsyncConfig cfg;
  cfg.inputs.model_free = true;
  cfg.inputs.client_example_counts = &counts;
  cfg.inputs.trace = &trace;
  cfg.inputs.catalog = &catalog;
  cfg.inputs.bandwidth = &bandwidth;
  cfg.inputs.duration.base_time_per_example_s = 0.05;
  cfg.inputs.duration.update_bytes = 100'000;
  cfg.inputs.reparticipation_gap_s = 0.0;
  cfg.inputs.max_rounds = 6;
  cfg.buffer_size = 3;
  cfg.max_concurrency = 8;
  cfg.max_staleness = 100;
  return cfg;
}

TEST(ConcurrencySmoke, ParallelFedBuffRunsAreIndependent) {
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(10.0);
  auto trace = test::always_available(40, 1e7);
  std::vector<std::uint32_t> counts(40, 20);

  constexpr int kThreads = 4;
  std::vector<fl::RunResult> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      auto cfg = smoke_config(trace, catalog, bw, counts);
      cfg.inputs.seed = 77;  // identical seeds: results must match exactly
      results[static_cast<std::size_t>(i)] = fl::run_fedbuff(cfg);
    });
  }
  for (auto& w : workers) w.join();

  for (const auto& r : results) {
    EXPECT_EQ(r.rounds, 6u);
    EXPECT_DOUBLE_EQ(r.virtual_duration_s, results[0].virtual_duration_s);
    EXPECT_EQ(r.metrics.tasks_started(), results[0].metrics.tasks_started());
  }
}

TEST(ConcurrencySmoke, CheckpointStoreHandlesConcurrentWriters) {
  auto dir = std::filesystem::temp_directory_path() / "flint_ckpt_concurrency";
  std::filesystem::remove_all(dir);
  store::CheckpointStore cps(dir.string());

  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        store::SimCheckpoint ckpt;
        ckpt.virtual_time_s = static_cast<double>(t * kWritesPerThread + i);
        ckpt.round = static_cast<std::uint64_t>(i) + 1;
        ckpt.model_parameters.assign(64, static_cast<float>(t));
        if (cps.write(ckpt) < 1) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : writers) w.join();

  EXPECT_EQ(failures.load(), 0);
  // Unique sequence numbers => every write landed as its own file.
  EXPECT_EQ(cps.checkpoint_count(), static_cast<std::size_t>(kThreads * kWritesPerThread));
  auto latest = cps.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->model_parameters.size(), 64u);
  std::filesystem::remove_all(dir);
}

TEST(ConcurrencySmoke, ParallelSerializationRoundTrips) {
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        store::SimCheckpoint ckpt;
        ckpt.virtual_time_s = 1.5 * t;
        ckpt.round = static_cast<std::uint64_t>(i + 1);
        ckpt.tasks_completed = 99;
        ckpt.model_parameters.assign(128, static_cast<float>(i));
        auto blob = store::serialize_checkpoint(ckpt);
        auto back = store::deserialize_checkpoint(blob);
        if (back.round != ckpt.round || back.model_parameters != ckpt.model_parameters)
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace flint
