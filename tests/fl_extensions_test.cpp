// Tests for the FL extensions: FedProx proximal regularization and
// compressed-update training.
#include <gtest/gtest.h>

#include "flint/fl/aggregator.h"
#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"
#include "test_helpers.h"

namespace flint::fl {
namespace {

TEST(FedProx, ProximalTermShrinksClientDrift) {
  util::Rng rng(41);
  auto task = test::small_task(rng, 10);
  auto model = task.make_model(rng);
  std::vector<float> global = model->get_flat_parameters();
  const auto& client_data = task.train.client_at(0).examples;

  auto drift = [&](double mu) {
    LocalTrainer trainer(model->clone(), task.batch_dense_dim());
    LocalTrainConfig cfg;
    cfg.lr = 0.2;
    cfg.epochs = 8;
    cfg.prox_mu = mu;
    LocalTrainResult r = trainer.train(client_data, global, cfg);
    double norm = 0.0;
    for (float d : r.delta) norm += static_cast<double>(d) * d;
    return std::sqrt(norm);
  };
  double plain = drift(0.0);
  double prox = drift(1.0);
  EXPECT_GT(plain, 0.0);
  EXPECT_LT(prox, plain);  // the proximal anchor holds the client closer
}

TEST(FedProx, ZeroMuMatchesPlainSgd) {
  util::Rng rng(42);
  auto task = test::small_task(rng, 5);
  auto model = task.make_model(rng);
  std::vector<float> global = model->get_flat_parameters();
  const auto& client_data = task.train.client_at(0).examples;
  LocalTrainConfig cfg;
  cfg.lr = 0.1;
  LocalTrainer a(model->clone(), task.batch_dense_dim());
  LocalTrainer b(model->clone(), task.batch_dense_dim());
  cfg.prox_mu = 0.0;
  auto ra = a.train(client_data, global, cfg);
  auto rb = b.train(client_data, global, cfg);
  EXPECT_EQ(ra.delta, rb.delta);  // deterministic and identical
}

TEST(FedProx, RunsInsideFedAvg) {
  util::Rng rng(43);
  auto task = test::small_task(rng, 40);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(40, 1e9);
  auto model = task.make_model(rng);
  double before = task.evaluate(*model);

  SyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 15;
  cfg.inputs.local.prox_mu = 0.1;
  cfg.cohort_size = 8;
  cfg.round_deadline_s = 1e6;
  RunResult r = run_fedavg(cfg);
  EXPECT_EQ(r.rounds, 15u);
  EXPECT_GT(r.final_metric, before);
}

class CompressedTrainingTest : public ::testing::TestWithParam<compress::CompressionKind> {};

TEST_P(CompressedTrainingTest, FedBuffStillLearns) {
  util::Rng rng(44);
  auto task = test::small_task(rng, 50);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(50, 1e9);
  auto model = task.make_model(rng);
  double before = task.evaluate(*model);

  AsyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 25;
  cfg.inputs.compression.kind = GetParam();
  cfg.inputs.compression.top_k_fraction = 0.3;
  cfg.inputs.duration.update_bytes = static_cast<std::uint64_t>(
      compress::compressed_bytes(model->parameter_count(), cfg.inputs.compression));
  cfg.buffer_size = 5;
  cfg.max_concurrency = 10;
  RunResult r = run_fedbuff(cfg);
  EXPECT_EQ(r.rounds, 25u);
  EXPECT_GT(r.final_metric, before + 0.05) << "compression should not stop learning";
}

INSTANTIATE_TEST_SUITE_P(Kinds, CompressedTrainingTest,
                         ::testing::Values(compress::CompressionKind::kNone,
                                           compress::CompressionKind::kInt8,
                                           compress::CompressionKind::kTopK));

TEST(CompressedTraining, SmallerUpdatesShortenCommTime) {
  // Same workload; int8 updates are ~4x smaller, so on a slow link the
  // virtual training time drops.
  util::Rng rng(45);
  auto task = test::small_task(rng, 40);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel slow_net(0.5);  // comm-dominated regime
  auto model = task.make_model(rng);

  auto run_with = [&](compress::CompressionKind kind) {
    auto trace = test::always_available(40, 1e9);
    AsyncConfig cfg;
    test::wire_inputs(cfg.inputs, task, *model, trace, catalog, slow_net);
    cfg.inputs.duration.base_time_per_example_s = 1e-5;  // compute negligible
    cfg.inputs.max_rounds = 10;
    cfg.inputs.compression.kind = kind;
    cfg.inputs.duration.update_bytes = static_cast<std::uint64_t>(
        compress::compressed_bytes(model->parameter_count(), cfg.inputs.compression));
    cfg.buffer_size = 5;
    cfg.max_concurrency = 10;
    return run_fedbuff(cfg).virtual_duration_s;
  };
  double raw = run_with(compress::CompressionKind::kNone);
  double quantized = run_with(compress::CompressionKind::kInt8);
  EXPECT_LT(quantized, raw * 0.5);
}

TEST(ServerMomentum, ChangesTrajectoryAndStillLearns) {
  util::Rng rng(46);
  auto task = test::small_task(rng, 40);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto model = task.make_model(rng);
  double before = task.evaluate(*model);

  auto run_with = [&](double momentum) {
    auto trace = test::always_available(40, 1e9);
    AsyncConfig cfg;
    test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
    cfg.inputs.max_rounds = 20;
    cfg.inputs.server_momentum = momentum;
    cfg.buffer_size = 5;
    cfg.max_concurrency = 10;
    return run_fedbuff(cfg);
  };
  RunResult plain = run_with(0.0);
  RunResult momentum = run_with(0.9);
  EXPECT_GT(plain.final_metric, before);
  EXPECT_GT(momentum.final_metric, before);
  EXPECT_NE(plain.final_parameters, momentum.final_parameters);
}

TEST(ServerMomentum, ZeroMatchesPlainAveraging) {
  std::vector<float> params_a = {1.0f, 2.0f};
  std::vector<float> params_b = params_a;
  std::vector<float> delta = {0.5f, -0.5f};
  ServerOptimizer opt(1.0, 0.0);
  opt.step(params_a, delta);
  apply_server_update(params_b, delta, 1.0);
  EXPECT_EQ(params_a, params_b);
}

TEST(ServerMomentum, AccumulatesVelocity) {
  std::vector<float> params = {0.0f};
  std::vector<float> delta = {1.0f};
  ServerOptimizer opt(1.0, 0.5);
  opt.step(params, delta);  // v = 1.0, p = 1.0
  EXPECT_FLOAT_EQ(params[0], 1.0f);
  opt.step(params, delta);  // v = 1.5, p = 2.5
  EXPECT_FLOAT_EQ(params[0], 2.5f);
}

TEST(ServerMomentum, RejectsBadConfig) {
  EXPECT_THROW(ServerOptimizer(0.0, 0.0), util::CheckError);
  EXPECT_THROW(ServerOptimizer(1.0, 1.0), util::CheckError);
  EXPECT_THROW(ServerOptimizer(1.0, -0.1), util::CheckError);
}

}  // namespace
}  // namespace flint::fl
