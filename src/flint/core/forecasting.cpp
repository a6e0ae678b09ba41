#include "flint/core/forecasting.h"

#include <cmath>
#include <sstream>

#include "flint/util/check.h"

namespace flint::core {

std::string ResourceForecast::summary() const {
  std::ostringstream os;
  os.precision(4);
  os << "duration=" << training_duration_h << "h, client_compute=" << total_client_compute_h
     << "h (wasted " << wasted_client_compute_h << "h), tasks=" << client_tasks_started
     << ", updates/s=" << updates_per_second << ", TEE=" << aggregation_mbytes_per_s
     << "MB/s (" << (fits_tee ? "fits" : "OVER CAPACITY") << "), workers=" << aggregator_workers
     << ", device_energy=" << device_energy_kwh << "kWh";
  return os.str();
}

double ForecastConfig::population_scale() const {
  if (simulated_population <= 0.0 || target_population <= 0.0) return 1.0;
  double s = target_population / simulated_population;
  FLINT_CHECK_FINITE(s);
  return s;
}

ResourceForecast forecast_resources(const fl::RunResult& result, const ForecastConfig& config) {
  ResourceForecast f;
  const sim::SimMetrics& m = result.metrics;
  // Target/simulated population ratio (1 when unset). Device-side totals and
  // aggregate update throughput grow with the cohort; per-task means and the
  // cadence-bound training duration do not.
  const double scale = config.population_scale();
  f.total_client_compute_h = m.client_compute_s() / 3600.0 * scale;
  f.client_tasks_started =
      static_cast<std::uint64_t>(std::llround(static_cast<double>(m.tasks_started()) * scale));
  f.training_duration_h = result.virtual_duration_s / 3600.0;

  // Wasted compute: attribute the waste fraction of started tasks to waste.
  // (Interrupted tasks spend partial compute, so this is an upper bound.)
  f.wasted_client_compute_h = f.total_client_compute_h * m.waste_fraction();

  if (m.tasks_started() > 0)
    f.mean_task_compute_s = m.client_compute_s() / static_cast<double>(m.tasks_started());

  f.device_energy_kwh = f.total_client_compute_h * config.device_watts / 1000.0;

  f.updates_per_second = result.updates_per_second() * scale;
  privacy::TeeSecureAggregator tee(config.tee);
  f.aggregation_mbytes_per_s =
      tee.required_mbytes_per_s(f.updates_per_second, config.update_bytes);
  f.fits_tee = tee.within_capacity(f.updates_per_second, config.update_bytes);

  FLINT_CHECK(config.updates_per_worker_per_s > 0.0);
  f.aggregator_workers = static_cast<std::uint64_t>(
      std::ceil(f.updates_per_second / config.updates_per_worker_per_s));
  if (f.updates_per_second > 0.0 && f.aggregator_workers == 0) f.aggregator_workers = 1;

  // A degenerate run (zero rounds, zero horizon) must forecast zeros, never
  // NaN/inf: every projected quantity is a finite function of finite inputs.
  FLINT_CHECK_FINITE(f.total_client_compute_h);
  FLINT_CHECK_FINITE(f.wasted_client_compute_h);
  FLINT_CHECK_FINITE(f.mean_task_compute_s);
  FLINT_CHECK_FINITE(f.device_energy_kwh);
  FLINT_CHECK_FINITE(f.training_duration_h);
  FLINT_CHECK_FINITE(f.updates_per_second);
  FLINT_CHECK_FINITE(f.aggregation_mbytes_per_s);
  return f;
}

}  // namespace flint::core
