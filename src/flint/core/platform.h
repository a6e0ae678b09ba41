// FlintPlatform: the integration façade (paper Figure 3). One object that
// wires the shared components — device catalog, data catalog, feature
// catalog — to the measurement tools and the experimental framework,
// the way the paper's platform augments LinkedIn's centralized ML platform.
#pragma once

#include <memory>

#include "flint/core/experiment.h"
#include "flint/core/forecasting.h"
#include "flint/data/proxy_generator.h"
#include "flint/device/availability.h"
#include "flint/device/benchmark_harness.h"
#include "flint/feature/feature_catalog.h"
#include "flint/obs/telemetry.h"

namespace flint::core {

/// FL-vs-centralized evaluation outcome for one use case (a Table 4 row).
struct CaseStudyResult {
  double centralized_metric = 0.0;
  double fl_metric = 0.0;        ///< median over trials
  double fl_metric_stdev = 0.0;
  /// (fl - centralized) / centralized, in percent (negative = FL worse).
  double performance_diff_pct = 0.0;
  double projected_training_h = 0.0;  ///< median virtual duration
  TrialSummary fl_trials;
  ResourceForecast forecast;
};

/// The platform façade.
class FlintPlatform {
 public:
  explicit FlintPlatform(std::uint64_t seed = 42);

  // --- Shared components (Figure 3). ---
  device::DeviceCatalog& devices() { return devices_; }
  const device::DeviceCatalog& devices() const { return devices_; }
  feature::FeatureCatalog& features() { return features_; }
  util::Rng& rng() { return rng_; }

  /// Attach a telemetry context (non-owning; must outlive the platform's
  /// use of it, nullptr detaches). evaluate_case_study installs it as the
  /// ambient obs context and threads it into every FL trial it runs.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }
  obs::Telemetry* telemetry() const { return telemetry_; }

  // --- Measurement tools (§3.2). ---

  /// Deploy a zoo model's benchmark app across the device fleet.
  device::FleetBenchmarkReport benchmark_model(char zoo_id, std::size_t records = 5000);

  /// Generate a synthetic session log (substitute for production logs).
  device::SessionLog generate_session_log(const device::SessionGeneratorConfig& config);

  /// Apply participation criteria to a session log.
  device::AvailabilityTrace build_availability(const device::SessionLog& log,
                                               const device::AvailabilityCriteria& criteria);

  // --- Proxy data (§3.3). ---

  /// Generate and register a proxy dataset.
  data::ProxyEntry generate_proxy(const std::vector<ml::Example>& records,
                                  const data::ProxyConfig& config,
                                  const std::function<std::uint64_t(std::size_t)>& key_of);

  // --- Decision-workflow evaluation (§3.4, §4). ---

  /// Full FL-vs-centralized comparison for a task: trains the centralized
  /// baseline, runs `trials` FedBuff trials under the availability trace,
  /// and forecasts resources from the best trial.
  CaseStudyResult evaluate_case_study(const data::FederatedTask& task,
                                      const fl::AsyncConfig& fl_config, int trials,
                                      int centralized_epochs,
                                      const ForecastConfig& forecast_config);

 private:
  util::Rng rng_;
  obs::Telemetry* telemetry_ = nullptr;
  device::DeviceCatalog devices_;
  data::DataCatalog data_catalog_;
  feature::FeatureCatalog features_;
};

}  // namespace flint::core
