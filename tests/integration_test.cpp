// Cross-module integration tests: the full pipeline from synthetic sessions
// and proxy data through simulated FL training, plus fault-tolerance
// recovery semantics (§3.4: "any restarted leader and executor can resume
// from the checkpoints without losing more than one round of work").
#include <gtest/gtest.h>

#include <filesystem>

#include "flint/core/platform.h"
#include "flint/fl/fedbuff.h"
#include "test_helpers.h"

namespace flint {
namespace {

TEST(Integration, SessionsToAvailabilityToFedBuff) {
  // Full path: generate sessions -> apply criteria -> run async FL with a
  // real model over the derived trace.
  core::FlintPlatform platform(21);
  util::Rng rng(22);

  device::SessionGeneratorConfig scfg;
  scfg.clients = 120;
  scfg.days = 7;
  scfg.mean_session_s = 1200.0;  // long sessions so tasks can finish
  auto log = platform.generate_session_log(scfg);

  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  auto trace = platform.build_availability(log, criteria);
  ASSERT_GT(trace.client_count(), 50u);

  auto task = test::small_task(rng, 120);
  auto model = task.make_model(rng);
  double before = task.evaluate(*model);
  net::PufferLikeBandwidthModel bandwidth;

  fl::AsyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, platform.devices(), bandwidth);
  cfg.inputs.duration.base_time_per_example_s = 0.005;
  cfg.inputs.max_rounds = 20;
  cfg.buffer_size = 5;
  cfg.max_concurrency = 20;
  fl::RunResult r = fl::run_fedbuff(cfg);

  EXPECT_GT(r.rounds, 5u);  // trace must sustain meaningful progress
  EXPECT_GT(r.final_metric, before);
  EXPECT_LE(r.virtual_duration_s, trace.horizon());
}

TEST(Integration, CheckpointRecoveryLosesAtMostOneCadence) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "flint_integration_ckpt";
  fs::remove_all(dir);
  store::CheckpointStore ckpt(dir.string());

  util::Rng rng(23);
  auto task = test::small_task(rng, 50);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(50, 1e9);
  auto model = task.make_model(rng);

  fl::AsyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 10;
  cfg.buffer_size = 4;
  cfg.max_concurrency = 8;
  cfg.inputs.leader.checkpoint_every_rounds = 1;  // checkpoint every round
  cfg.inputs.leader.checkpoint_store = &ckpt;
  fl::RunResult r = fl::run_fedbuff(cfg);
  ASSERT_EQ(r.rounds, 10u);

  // Simulated leader crash: recover the latest checkpoint. With cadence 1,
  // at most one round of work is lost relative to the finished run.
  auto recovered = ckpt.latest();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_GE(recovered->round, r.rounds - 1);
  EXPECT_EQ(recovered->model_parameters.size(), r.final_parameters.size());

  // A model restored from the checkpoint must evaluate comparably to the
  // final model (they differ by at most one aggregation).
  auto restored_model = task.make_model(rng);
  restored_model->set_flat_parameters(recovered->model_parameters);
  double restored_metric = task.evaluate(*restored_model);
  EXPECT_NEAR(restored_metric, r.final_metric, 0.15);
  fs::remove_all(dir);
}

TEST(Integration, ProxyHeterogeneityAffectsConvergenceStability) {
  // The paper's Figure 10 observation: under heterogeneous client sampling,
  // outcomes vary visibly across seeds because early-round client selection
  // drives convergence. Verify the framework surfaces that seed variance.
  util::Rng rng(25);
  data::SyntheticTaskConfig base;
  base.clients = 60;
  base.mean_records = 15;
  base.std_records = 10;
  base.dense_dim = 8;
  base.test_examples = 500;

  auto run_with_heterogeneity = [&](double h) {
    data::SyntheticTaskConfig cfg = base;
    cfg.heterogeneity = h;
    util::Rng task_rng(31);
    auto task = data::make_synthetic_task(cfg, task_rng);
    auto catalog = device::DeviceCatalog::standard();
    test::FixedBandwidthModel bw(50.0);
    auto trace = test::always_available(60, 1e9);
    auto model = task.make_model(task_rng);
    fl::AsyncConfig fcfg;
    test::wire_inputs(fcfg.inputs, task, *model, trace, catalog, bw);
    fcfg.inputs.max_rounds = 15;
    fcfg.buffer_size = 5;
    fcfg.max_concurrency = 10;
    return core::run_trials_fedbuff(fcfg, 3);
  };

  core::TrialSummary heterogeneous = run_with_heterogeneity(1.5);
  // Trials differ only by seed (client selection order + init); under strong
  // heterogeneity the outcomes must visibly differ yet stay valid metrics.
  EXPECT_GT(heterogeneous.stdev_metric, 0.0);
  for (const auto& trial : heterogeneous.trials) {
    EXPECT_GT(trial.final_metric, 0.0);
    EXPECT_LE(trial.final_metric, 1.0);
  }
}

}  // namespace
}  // namespace flint
