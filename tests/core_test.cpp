#include <gtest/gtest.h>

#include <cmath>

#include "flint/core/decision_workflow.h"
#include "flint/core/experiment.h"
#include "flint/core/forecasting.h"
#include "flint/core/platform.h"
#include "test_helpers.h"

namespace flint::core {
namespace {

// ----------------------------------------------------------------- Trials

fl::AsyncConfig tiny_async_config(const data::FederatedTask& task, ml::Model& model,
                                  const device::AvailabilityTrace& trace,
                                  const device::DeviceCatalog& catalog,
                                  const net::BandwidthModel& bw) {
  fl::AsyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, model, trace, catalog, bw);
  cfg.inputs.max_rounds = 8;
  cfg.buffer_size = 4;
  cfg.max_concurrency = 8;
  return cfg;
}

TEST(Trials, SummaryStatsOverSeeds) {
  util::Rng rng(1);
  auto task = test::small_task(rng, 40);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(40, 1e9);
  auto model = task.make_model(rng);
  auto cfg = tiny_async_config(task, *model, trace, catalog, bw);

  TrialSummary s = run_trials_fedbuff(cfg, 3);
  EXPECT_EQ(s.trials.size(), 3u);
  EXPECT_GT(s.median_metric, 0.0);
  EXPECT_GE(s.stdev_metric, 0.0);
  EXPECT_GT(s.median_duration_s, 0.0);
  EXPECT_GT(s.mean_tasks_started, 0.0);
  // Seeds differ, so at least one pair of trials should differ.
  bool any_diff = s.trials[0].final_metric != s.trials[1].final_metric ||
                  s.trials[1].final_metric != s.trials[2].final_metric;
  EXPECT_TRUE(any_diff);
}

TEST(Trials, SummarizeRejectsEmpty) {
  EXPECT_THROW(summarize_trials({}), util::CheckError);
}

// -------------------------------------------------------------- Forecasting

TEST(Forecasting, ProjectsFromRunMetrics) {
  fl::RunResult run;
  run.virtual_duration_s = 3600.0;
  sim::TaskResult tr;
  tr.spent_compute_s = 100.0;
  tr.outcome = sim::TaskOutcome::kSucceeded;
  for (int i = 0; i < 36; ++i) {
    run.metrics.on_task_started();
    run.metrics.on_task_finished(tr);
  }
  run.metrics.on_round({1, 0.0, 3600.0, 36, 0.0});

  ForecastConfig cfg;
  cfg.update_bytes = 760'000;
  ResourceForecast f = forecast_resources(run, cfg);
  EXPECT_NEAR(f.total_client_compute_h, 1.0, 1e-9);
  EXPECT_EQ(f.client_tasks_started, 36u);
  EXPECT_NEAR(f.updates_per_second, 0.01, 1e-9);
  EXPECT_NEAR(f.training_duration_h, 1.0, 1e-9);
  EXPECT_TRUE(f.fits_tee);
  EXPECT_EQ(f.aggregator_workers, 1u);
  EXPECT_GT(f.device_energy_kwh, 0.0);
  EXPECT_NE(f.summary().find("duration="), std::string::npos);
}

TEST(Forecasting, TeePaperProjection) {
  // §3.5: 610k tasks over 48h = 3.53 updates/s; 0.76MB updates = 2.68 MB/s.
  fl::RunResult run;
  run.virtual_duration_s = 48.0 * 3600.0;
  run.metrics.on_round({1, 0.0, run.virtual_duration_s, 610'000, 0.0});
  ForecastConfig cfg;
  cfg.update_bytes = 760'000;
  cfg.tee.per_update_overhead_bytes = 0;
  ResourceForecast f = forecast_resources(run, cfg);
  EXPECT_NEAR(f.updates_per_second, 3.53, 0.01);
  EXPECT_NEAR(f.aggregation_mbytes_per_s, 2.68, 0.01);
}

TEST(Forecasting, ZeroRoundRunForecastsFiniteZeros) {
  // A run that never got off the ground (no tasks, no rounds, zero horizon)
  // must project zeros, not NaN from 0/0 divisions.
  fl::RunResult run;
  ResourceForecast f = forecast_resources(run, ForecastConfig{});
  EXPECT_EQ(f.total_client_compute_h, 0.0);
  EXPECT_EQ(f.wasted_client_compute_h, 0.0);
  EXPECT_EQ(f.client_tasks_started, 0u);
  EXPECT_EQ(f.mean_task_compute_s, 0.0);
  EXPECT_EQ(f.device_energy_kwh, 0.0);
  EXPECT_EQ(f.training_duration_h, 0.0);
  EXPECT_EQ(f.updates_per_second, 0.0);
  EXPECT_EQ(f.aggregator_workers, 0u);
  EXPECT_TRUE(std::isfinite(f.aggregation_mbytes_per_s));
}

TEST(Forecasting, ZeroDurationHorizonStaysFinite) {
  // Tasks ran but the virtual clock never advanced (degenerate trace):
  // throughput-derived projections must be 0, not compute/0.
  fl::RunResult run;
  run.virtual_duration_s = 0.0;
  sim::TaskResult tr;
  tr.spent_compute_s = 5.0;
  tr.outcome = sim::TaskOutcome::kSucceeded;
  run.metrics.on_task_started();
  run.metrics.on_task_finished(tr);
  ResourceForecast f = forecast_resources(run, ForecastConfig{});
  EXPECT_GT(f.total_client_compute_h, 0.0);
  EXPECT_EQ(f.updates_per_second, 0.0);
  EXPECT_EQ(f.training_duration_h, 0.0);
  EXPECT_TRUE(std::isfinite(f.mean_task_compute_s));
  EXPECT_TRUE(std::isfinite(f.aggregation_mbytes_per_s));
}

TEST(Forecasting, PopulationScalingGrowsDeviceSideOnly) {
  fl::RunResult run;
  run.virtual_duration_s = 3600.0;
  sim::TaskResult tr;
  tr.spent_compute_s = 100.0;
  tr.outcome = sim::TaskOutcome::kSucceeded;
  for (int i = 0; i < 36; ++i) {
    run.metrics.on_task_started();
    run.metrics.on_task_finished(tr);
  }
  run.metrics.on_round({1, 0.0, 3600.0, 36, 0.0});

  ForecastConfig base;
  ForecastConfig scaled = base;
  scaled.simulated_population = 1000.0;
  scaled.target_population = 10'000.0;
  EXPECT_NEAR(scaled.population_scale(), 10.0, 1e-12);

  ResourceForecast f1 = forecast_resources(run, base);
  ResourceForecast f10 = forecast_resources(run, scaled);
  // Device-side totals and aggregate throughput scale with the cohort...
  EXPECT_NEAR(f10.total_client_compute_h, f1.total_client_compute_h * 10.0, 1e-9);
  EXPECT_EQ(f10.client_tasks_started, f1.client_tasks_started * 10);
  EXPECT_NEAR(f10.updates_per_second, f1.updates_per_second * 10.0, 1e-9);
  EXPECT_NEAR(f10.device_energy_kwh, f1.device_energy_kwh * 10.0, 1e-9);
  // ...while per-task means and the cadence-bound duration do not.
  EXPECT_NEAR(f10.mean_task_compute_s, f1.mean_task_compute_s, 1e-12);
  EXPECT_NEAR(f10.training_duration_h, f1.training_duration_h, 1e-12);
}

TEST(Forecasting, PopulationScalingShrinksWhenTargetSmaller) {
  fl::RunResult run;
  run.virtual_duration_s = 3600.0;
  sim::TaskResult tr;
  tr.spent_compute_s = 100.0;
  tr.outcome = sim::TaskOutcome::kSucceeded;
  for (int i = 0; i < 40; ++i) {
    run.metrics.on_task_started();
    run.metrics.on_task_finished(tr);
  }
  run.metrics.on_round({1, 0.0, 3600.0, 40, 0.0});

  ForecastConfig cfg;
  cfg.simulated_population = 4000.0;
  cfg.target_population = 1000.0;  // pilot smaller than the simulation
  EXPECT_NEAR(cfg.population_scale(), 0.25, 1e-12);
  ResourceForecast f = forecast_resources(run, cfg);
  EXPECT_EQ(f.client_tasks_started, 10u);
  EXPECT_NEAR(f.total_client_compute_h, 40.0 * 100.0 / 3600.0 * 0.25, 1e-9);
  EXPECT_TRUE(std::isfinite(f.updates_per_second));
}

TEST(Forecasting, PopulationScalingDisabledWhenUnset) {
  ForecastConfig cfg;
  EXPECT_EQ(cfg.population_scale(), 1.0);
  cfg.simulated_population = 500.0;  // target still unset
  EXPECT_EQ(cfg.population_scale(), 1.0);
  cfg.simulated_population = 0.0;
  cfg.target_population = 500.0;  // simulated unset
  EXPECT_EQ(cfg.population_scale(), 1.0);
  cfg.simulated_population = -3.0;  // nonsense disables rather than flips sign
  EXPECT_EQ(cfg.population_scale(), 1.0);
}

TEST(Forecasting, WasteFractionDrivesWastedCompute) {
  fl::RunResult run;
  run.virtual_duration_s = 100.0;
  sim::TaskResult good;
  good.spent_compute_s = 10.0;
  good.outcome = sim::TaskOutcome::kSucceeded;
  sim::TaskResult bad = good;
  bad.outcome = sim::TaskOutcome::kStale;
  run.metrics.on_task_started();
  run.metrics.on_task_finished(good);
  run.metrics.on_task_started();
  run.metrics.on_task_finished(bad);
  ResourceForecast f = forecast_resources(run, ForecastConfig{});
  EXPECT_NEAR(f.wasted_client_compute_h, f.total_client_compute_h * 0.5, 1e-9);
}

// --------------------------------------------------------- DecisionWorkflow

TEST(DecisionWorkflow, RunsStagesInCanonicalOrder) {
  DecisionWorkflow wf;
  std::vector<Stage> ran;
  for (Stage s : DecisionWorkflow::canonical_order())
    wf.set_stage(s, [s, &ran] {
      ran.push_back(s);
      return StageReport{};
    });
  DecisionReport report = wf.run();
  EXPECT_TRUE(report.go);
  EXPECT_EQ(ran, DecisionWorkflow::canonical_order());
  EXPECT_EQ(report.entries.size(), 8u);
  EXPECT_NE(report.to_string().find("DECISION: GO"), std::string::npos);
}

TEST(DecisionWorkflow, BlockStopsExecution) {
  DecisionWorkflow wf;
  int later_ran = 0;
  wf.set_stage(Stage::kDeviceBenchmark, [] {
    StageReport r;
    r.verdict = StageVerdict::kBlock;
    r.notes = "model too large for low-end devices";
    return r;
  });
  wf.set_stage(Stage::kResourceForecast, [&] {
    ++later_ran;
    return StageReport{};
  });
  DecisionReport report = wf.run();
  EXPECT_FALSE(report.go);
  EXPECT_EQ(report.blocked_at, "device-benchmark");
  EXPECT_EQ(later_ran, 0);
  EXPECT_NE(report.to_string().find("NO-GO"), std::string::npos);
}

TEST(DecisionWorkflow, UnregisteredStagesSkippedWithNote) {
  DecisionWorkflow wf;
  wf.set_stage(Stage::kDeploymentDecision, [] { return StageReport{}; });
  DecisionReport report = wf.run();
  EXPECT_TRUE(report.go);
  EXPECT_EQ(report.entries.size(), 8u);
  EXPECT_EQ(report.entries[0].report.notes, "stage not instrumented; skipped");
}

TEST(DecisionWorkflow, MeasurementsSurfaceInReport) {
  DecisionWorkflow wf;
  wf.set_stage(Stage::kAvailabilityAnalysis, [] {
    StageReport r;
    r.measurements["available_fraction"] = 0.22;
    return r;
  });
  DecisionReport report = wf.run();
  EXPECT_NE(report.to_string().find("available_fraction"), std::string::npos);
}

TEST(DecisionWorkflow, NullStageRejected) {
  DecisionWorkflow wf;
  EXPECT_THROW(wf.set_stage(Stage::kDeviceBenchmark, nullptr), util::CheckError);
}

// ------------------------------------------------------------ FlintPlatform

TEST(Platform, ComponentsWired) {
  FlintPlatform platform(7);
  EXPECT_EQ(platform.devices().size(), 27u);
  auto report = platform.benchmark_model('A', 1000);
  EXPECT_EQ(report.per_device.size(), 27u);

  device::SessionGeneratorConfig scfg;
  scfg.clients = 150;
  scfg.days = 3;
  auto log = platform.generate_session_log(scfg);
  EXPECT_GT(log.sessions.size(), 100u);

  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  auto trace = platform.build_availability(log, criteria);
  EXPECT_GT(trace.window_count(), 0u);
  EXPECT_LT(trace.window_count(), log.sessions.size());
}

TEST(Platform, ProxyRegistration) {
  FlintPlatform platform(8);
  std::vector<ml::Example> records(120);
  data::ProxyConfig cfg;
  cfg.name = "test-proxy";
  auto entry = platform.generate_proxy(records, cfg, [](std::size_t i) { return i % 12; });
  EXPECT_EQ(entry.stats.client_population, 12u);
  EXPECT_EQ(entry.version, 1);
  EXPECT_EQ(platform.generate_proxy(records, cfg, [](std::size_t i) { return i % 12; }).version,
            2);
}

TEST(Platform, CaseStudyEndToEnd) {
  FlintPlatform platform(9);
  util::Rng rng(10);
  auto task = test::small_task(rng, 50);
  auto trace = test::always_available(50, 1e9);
  test::FixedBandwidthModel bw(50.0);
  auto model = task.make_model(rng);
  auto cfg = tiny_async_config(task, *model, trace, platform.devices(), bw);
  cfg.inputs.max_rounds = 12;

  CaseStudyResult result =
      platform.evaluate_case_study(task, cfg, /*trials=*/2, /*centralized_epochs=*/3,
                                   ForecastConfig{});
  EXPECT_GT(result.centralized_metric, 0.0);
  EXPECT_GT(result.fl_metric, 0.0);
  EXPECT_GT(result.projected_training_h, 0.0);
  EXPECT_EQ(result.fl_trials.trials.size(), 2u);
  // FL typically at or below the centralized baseline (Table 4's shape);
  // allow a small positive margin for noise on this tiny task.
  EXPECT_LT(result.performance_diff_pct, 25.0);
  EXPECT_GT(result.performance_diff_pct, -80.0);
}

}  // namespace
}  // namespace flint::core
