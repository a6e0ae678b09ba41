// Tests for the network bandwidth models and the fairness analysis tool.
#include <gtest/gtest.h>

#include <memory>

#include "flint/core/fairness.h"
#include "flint/data/synthetic_tasks.h"
#include "flint/device/session_generator.h"
#include "flint/fl/fedbuff.h"
#include "flint/fl/rpc_runtime.h"
#include "flint/net/bandwidth_model.h"
#include "flint/util/stats.h"
#include "test_helpers.h"

namespace flint {
namespace {

// ------------------------------------------------------------- net

TEST(PufferLikeBandwidth, SamplesWithinClampAndSpread) {
  net::PufferLikeBandwidthModel model;
  util::Rng rng(2);
  util::RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    double v = model.sample_mbps(rng);
    ASSERT_GE(v, 0.2);
    ASSERT_LE(v, 400.0);
    s.add(v);
  }
  // Median edge bandwidth in the tens of Mbps with a wide spread, like the
  // Puffer population.
  EXPECT_GT(s.mean(), 5.0);
  EXPECT_LT(s.mean(), 60.0);
  EXPECT_GT(s.max() / s.min(), 50.0);
}

TEST(PufferLikeBandwidth, MixtureWeightsRespected) {
  // A 100%-congested mixture should produce much lower bandwidth than the
  // default three-component mix.
  net::PufferLikeBandwidthModel congested({{1.0, std::log(1.5), 0.8}});
  net::PufferLikeBandwidthModel standard;
  util::Rng rng_a(3), rng_b(3);
  double sum_congested = 0.0, sum_standard = 0.0;
  for (int i = 0; i < 5000; ++i) {
    sum_congested += congested.sample_mbps(rng_a);
    sum_standard += standard.sample_mbps(rng_b);
  }
  EXPECT_LT(sum_congested, sum_standard * 0.5);
}

TEST(TransferSeconds, LinearInBytesInverseInRate) {
  EXPECT_DOUBLE_EQ(net::transfer_seconds(1'000'000, 8.0), 1.0);  // 1MB at 1MB/s
  EXPECT_DOUBLE_EQ(net::transfer_seconds(2'000'000, 8.0), 2.0);
  EXPECT_DOUBLE_EQ(net::transfer_seconds(1'000'000, 16.0), 0.5);
  EXPECT_THROW(net::transfer_seconds(1, 0.0), util::CheckError);
}

// ------------------------------------------------------------ fairness

TEST(Fairness, TierClassification) {
  device::DeviceProfile fast;
  fast.speed_multiplier = 0.4;
  device::DeviceProfile mid;
  mid.speed_multiplier = 1.0;
  device::DeviceProfile slow;
  slow.speed_multiplier = 2.5;
  EXPECT_EQ(core::tier_of(fast), core::DeviceTier::kHighEnd);
  EXPECT_EQ(core::tier_of(mid), core::DeviceTier::kMidRange);
  EXPECT_EQ(core::tier_of(slow), core::DeviceTier::kLowEnd);
  EXPECT_STREQ(core::tier_name(core::DeviceTier::kLowEnd), "low-end");
}

TEST(Fairness, ReportCoversAllTiersWithData) {
  util::Rng rng(4);
  auto task = test::small_task(rng, 120);
  auto catalog = device::DeviceCatalog::standard();
  // Assign devices round-robin across the whole catalog so every tier has
  // clients.
  std::vector<std::size_t> client_device(120);
  for (std::size_t c = 0; c < 120; ++c) client_device[c] = c % catalog.size();
  auto model = task.make_model(rng);

  core::FairnessReport report =
      core::evaluate_fairness(*model, task, client_device, catalog);
  EXPECT_FALSE(report.tiers.empty());
  std::size_t clients = 0, examples = 0;
  for (const auto& t : report.tiers) {
    clients += t.clients;
    examples += t.examples;
    EXPECT_GE(t.metric, 0.0);
    EXPECT_LE(t.metric, 1.0);
  }
  EXPECT_EQ(clients, 120u);
  EXPECT_GT(examples, 0u);
  EXPECT_GE(report.metric_gap, 0.0);
  EXPECT_NE(report.to_string().find("overall="), std::string::npos);
}

TEST(Fairness, GapIsBestMinusWorst) {
  util::Rng rng(5);
  auto task = test::small_task(rng, 60);
  auto catalog = device::DeviceCatalog::standard();
  std::vector<std::size_t> client_device(60);
  for (std::size_t c = 0; c < 60; ++c) client_device[c] = c % catalog.size();
  auto model = task.make_model(rng);
  auto report = core::evaluate_fairness(*model, task, client_device, catalog);
  double best = 0.0, worst = 1e18;
  for (const auto& t : report.tiers) {
    best = std::max(best, t.metric);
    worst = std::min(worst, t.metric);
  }
  EXPECT_NEAR(report.metric_gap, best - worst, 1e-12);
  EXPECT_TRUE(report.fair_within(report.metric_gap + 1e-9));
  EXPECT_FALSE(report.metric_gap > 0.0 && report.fair_within(report.metric_gap / 2.0));
}

TEST(Fairness, UnmappedClientsSkipped) {
  util::Rng rng(6);
  auto task = test::small_task(rng, 50);
  auto catalog = device::DeviceCatalog::standard();
  std::vector<std::size_t> client_device(10, 0);  // only first 10 mapped
  auto model = task.make_model(rng);
  auto report = core::evaluate_fairness(*model, task, client_device, catalog);
  std::size_t clients = 0;
  for (const auto& t : report.tiers) clients += t.clients;
  EXPECT_EQ(clients, 10u);
}

TEST(Fairness, RejectsBadHoldout) {
  util::Rng rng(7);
  auto task = test::small_task(rng, 10);
  auto catalog = device::DeviceCatalog::standard();
  std::vector<std::size_t> client_device(10, 0);
  auto model = task.make_model(rng);
  EXPECT_THROW(core::evaluate_fairness(*model, task, client_device, catalog, 0.0),
               util::CheckError);
  EXPECT_THROW(core::evaluate_fairness(*model, task, client_device, catalog, 1.5),
               util::CheckError);
}

// ------------------------------------------- bandwidth x rpc interplay

// The bandwidth model shapes simulated comm delays on the leader side of the
// simulation; the rpc transport only decides *where* client SGD runs. The two
// must compose without interfering: a run on the loopback rpc transport must
// reproduce the in-process run's bandwidth-driven timing (virtual durations,
// task counts) and its trained parameters bit-for-bit (DESIGN.md §14).
TEST(BandwidthRpcInterplay, LoopbackTransportLeavesBandwidthDelaysIdentical) {
  auto run = [](bool use_rpc) {
    util::Rng rng(9);
    auto catalog = device::DeviceCatalog::standard();
    device::SessionGeneratorConfig sessions;
    sessions.clients = 60;
    sessions.days = 1;
    sessions.mean_session_s = 1800.0;
    auto log = device::generate_sessions(sessions, catalog, rng);
    device::AvailabilityCriteria criteria;
    criteria.require_wifi = true;
    auto trace = device::build_availability(log, criteria, catalog);

    data::SyntheticTaskConfig task_cfg;
    task_cfg.domain = data::Domain::kAds;
    task_cfg.clients = 60;
    task_cfg.mean_records = 30.0;
    task_cfg.max_records = 200;
    task_cfg.dense_dim = 8;
    task_cfg.test_examples = 200;
    auto task = data::make_synthetic_task(task_cfg, rng);
    auto model = task.make_model(rng);

    net::PufferLikeBandwidthModel bandwidth;
    fl::AsyncConfig cfg;
    cfg.inputs.dataset = &task.train;
    cfg.inputs.dense_dim = task.batch_dense_dim();
    cfg.inputs.model_template = model.get();
    cfg.inputs.trace = &trace;
    cfg.inputs.catalog = &catalog;
    cfg.inputs.bandwidth = &bandwidth;
    cfg.inputs.test = &task.test;
    cfg.inputs.domain = task.config.domain;
    cfg.inputs.local.loss = task.loss_kind();
    // Large updates make comm the dominant duration term, so any rpc-side
    // perturbation of the bandwidth-model draws would be visible here.
    cfg.inputs.duration.update_bytes = 2'000'000;
    cfg.inputs.max_rounds = 3;
    cfg.inputs.reparticipation_gap_s = 600.0;
    cfg.inputs.seed = 9;
    cfg.buffer_size = 4;
    cfg.max_concurrency = 8;

    std::unique_ptr<fl::RpcRuntime> rpc;
    if (use_rpc) {
      fl::RpcRuntimeConfig rpc_cfg;
      rpc_cfg.kind = fl::TransportKind::kLoopback;
      rpc_cfg.executors = 2;
      rpc = std::make_unique<fl::RpcRuntime>(rpc_cfg, cfg.inputs);
      cfg.inputs.rpc_leader = rpc->leader();
    }
    return fl::run_fedbuff(cfg);
  };

  fl::RunResult in_process = run(/*use_rpc=*/false);
  fl::RunResult loopback = run(/*use_rpc=*/true);
  EXPECT_EQ(in_process.final_parameters, loopback.final_parameters);
  EXPECT_DOUBLE_EQ(in_process.virtual_duration_s, loopback.virtual_duration_s);
  EXPECT_DOUBLE_EQ(in_process.final_metric, loopback.final_metric);
  EXPECT_EQ(in_process.rounds, loopback.rounds);
  EXPECT_EQ(in_process.metrics.tasks_started(), loopback.metrics.tasks_started());
  EXPECT_DOUBLE_EQ(in_process.metrics.mean_round_duration_s(),
                   loopback.metrics.mean_round_duration_s());
  EXPECT_DOUBLE_EQ(in_process.metrics.client_compute_s(), loopback.metrics.client_compute_s());
}

}  // namespace
}  // namespace flint
