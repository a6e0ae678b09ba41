#include "flint/core/platform.h"

#include <optional>

#include "flint/fl/trainer.h"
#include "flint/util/check.h"

namespace flint::core {

FlintPlatform::FlintPlatform(std::uint64_t seed)
    : rng_(seed), devices_(device::DeviceCatalog::standard()) {}

device::FleetBenchmarkReport FlintPlatform::benchmark_model(char zoo_id, std::size_t records) {
  return device::simulate_fleet_benchmark(ml::model_spec(zoo_id), devices_, records, rng_);
}

device::SessionLog FlintPlatform::generate_session_log(
    const device::SessionGeneratorConfig& config) {
  return device::generate_sessions(config, devices_, rng_);
}

device::AvailabilityTrace FlintPlatform::build_availability(
    const device::SessionLog& log, const device::AvailabilityCriteria& criteria) {
  return device::build_availability(log, criteria, devices_);
}

data::ProxyEntry FlintPlatform::generate_proxy(
    const std::vector<ml::Example>& records, const data::ProxyConfig& config,
    const std::function<std::uint64_t(std::size_t)>& key_of) {
  data::ProxyGenerator generator(data_catalog_);
  return generator.generate(records, config, key_of, rng_);
}

CaseStudyResult FlintPlatform::evaluate_case_study(const data::FederatedTask& task,
                                                   const fl::AsyncConfig& fl_config, int trials,
                                                   int centralized_epochs,
                                                   const ForecastConfig& forecast_config) {
  FLINT_CHECK(trials >= 1);
  FLINT_CHECK(centralized_epochs >= 1);
  CaseStudyResult result;

  // Ambient obs context for the whole case study, so the centralized
  // baseline's local-SGD spans land in the same trace as the FL trials.
  std::optional<obs::ScopedTelemetry> obs_scope;
  if (telemetry_ != nullptr && obs::current() != telemetry_) obs_scope.emplace(telemetry_);
  FLINT_TRACE_SPAN("platform.case_study", "core");

  // Centralized baseline on the merged proxy.
  auto centralized_model = task.make_model(rng_);
  fl::LocalTrainConfig central_cfg = fl_config.inputs.local;
  central_cfg.loss = task.loss_kind();
  auto curve =
      fl::train_centralized(*centralized_model, task, central_cfg, centralized_epochs, rng_);
  result.centralized_metric = curve.back();

  // FL trials under the measured constraints; each trial's runner sees the
  // platform telemetry through its RunInputs.
  fl::AsyncConfig trial_config = fl_config;
  trial_config.inputs.telemetry = telemetry_;
  TrialSummary summary = run_trials_fedbuff(trial_config, trials);
  result.fl_metric = summary.median_metric;
  result.fl_metric_stdev = summary.stdev_metric;
  result.projected_training_h = summary.median_duration_s / 3600.0;
  FLINT_CHECK(result.centralized_metric > 0.0);
  result.performance_diff_pct =
      (result.fl_metric - result.centralized_metric) / result.centralized_metric * 100.0;

  // Forecast resources from the best trial.
  std::size_t best = 0;
  for (std::size_t i = 1; i < summary.trials.size(); ++i)
    if (summary.trials[i].final_metric > summary.trials[best].final_metric) best = i;
  result.forecast = forecast_resources(summary.trials[best], forecast_config);
  result.fl_trials = std::move(summary);
  return result;
}

}  // namespace flint::core
