// The advertising case study (paper §4.1), end to end:
//   1. define conservative participation criteria and generate traces;
//   2. build a client-level down-sampled proxy with natural partitioning;
//   3. select a mobile-ready model (size budget, vocab-vs-hashing tradeoff);
//   4. evaluate systems + model performance under FedBuff with 5 trials;
//   5. check the TEE bandwidth budget for secure aggregation.
//
// Run: ./build/examples/ads_case_study
#include <iostream>

#include "flint/core/fairness.h"
#include "flint/core/platform.h"
#include "flint/data/synthetic_tasks.h"
#include "flint/feature/feature_hashing.h"
#include "flint/feature/vocab.h"
#include "flint/net/bandwidth_model.h"
#include "flint/privacy/secure_agg.h"

int main() {
  using namespace flint;
  core::FlintPlatform platform(7);
  std::cout << "=== Ads case study (paper Section 4.1) ===\n\n";

  // -- 1. Client participation and availability. ---------------------------
  // Conservative criteria: foreground app, battery > 80%, WiFi.
  device::SessionGeneratorConfig sessions;
  sessions.clients = 800;
  sessions.days = 14;  // two weeks: usage has weekly periodicity
  sessions.mean_session_s = 2000.0;
  auto log = platform.generate_session_log(sessions);

  device::AvailabilityCriteria criteria;
  criteria.require_foreground = true;
  criteria.min_battery_pct = 80.0;
  criteria.require_wifi = true;
  auto trace = platform.build_availability(log, criteria);
  std::cout << "[availability] " << device::criteria_pass_fraction(log, criteria,
                                                                   platform.devices()) * 100.0
            << "% of session time eligible; " << trace.window_count() << " windows from "
            << trace.client_count() << " clients\n";

  // -- 2. Proxy dataset: natural partitioning by member id, client-level
  //       down-sampling preserving quantity and label skew. ----------------
  data::SyntheticTaskConfig task_cfg;
  task_cfg.domain = data::Domain::kAds;
  task_cfg.clients = 800;
  task_cfg.mean_records = 40;
  task_cfg.std_records = 150;  // "std of 667, max of 39,731" at production scale
  task_cfg.max_records = 2000;
  task_cfg.label_ratio = 0.28;
  task_cfg.heterogeneity = 0.6;
  auto task = data::make_synthetic_task(task_cfg, platform.rng());

  // Register the proxy in the data catalog with its FL metadata.
  data::ProxyConfig proxy_cfg;
  proxy_cfg.name = "ads-proxy";
  proxy_cfg.lookback_days = 90;
  auto records = task.train.to_centralized();
  std::size_t cursor = 0;
  std::vector<std::uint64_t> owner(records.size());
  for (const auto& client : task.train.clients())
    for (std::size_t i = 0; i < client.size(); ++i) owner[cursor++] = client.client_id;
  auto entry = platform.generate_proxy(records, proxy_cfg,
                                       [&](std::size_t i) { return owner[i]; });
  std::cout << "[proxy] " << entry.stats.to_string() << "\n";

  // -- 3. Mobile-ready model selection. ------------------------------------
  // SDK-distributed models must be < 1MB; Model B fits at 0.76MB and has the
  // smallest network+memory footprint of the candidates.
  std::cout << "[model selection]\n";
  for (char id : {'A', 'B', 'C'}) {
    const auto& spec = ml::model_spec(id);
    bool fits_sdk = spec.calibration.storage_mb < 1.0;
    std::cout << "  Model " << id << ": " << spec.calibration.storage_mb << "MB storage, "
              << spec.calibration.network_mb << "MB network -> "
              << (fits_sdk ? "fits" : "exceeds") << " the <1MB SDK budget\n";
  }
  // Vocab files vs feature hashing for the 70%-categorical feature space.
  std::vector<std::pair<std::string, std::uint64_t>> freqs;
  for (int i = 0; i < 40'000; ++i)
    freqs.push_back({"cat_" + std::to_string(i), static_cast<std::uint64_t>(40'000 - i)});
  auto vocab = feature::Vocab::build(freqs, 40'000);
  std::cout << "  vocab asset would cost " << vocab.asset_bytes() / 1e6
            << "MB on device; hashing into 2^16 buckets costs 0MB at "
            << feature::expected_collision_rate(40'000, 1 << 16) * 100.0
            << "% expected collisions\n";

  // -- 4. Systems and model performance (5 trials, like the paper). --------
  auto model = task.make_model(platform.rng());
  net::PufferLikeBandwidthModel bandwidth;
  fl::AsyncConfig cfg;
  cfg.inputs.dataset = &task.train;
  cfg.inputs.dense_dim = task.batch_dense_dim();
  cfg.inputs.model_template = model.get();
  cfg.inputs.trace = &trace;
  cfg.inputs.catalog = &platform.devices();
  cfg.inputs.bandwidth = &bandwidth;
  cfg.inputs.test = &task.test;
  cfg.inputs.domain = task.config.domain;
  cfg.inputs.local.loss = task.loss_kind();
  cfg.inputs.local.clip_norm = 1.0;
  cfg.inputs.client_lr = fl::LrSchedule::exponential_decay(0.1, 0.85, 25);
  cfg.inputs.duration = fl::TaskDurationModel::from_spec(ml::model_spec('B'), 1);
  cfg.inputs.max_rounds = 80;
  cfg.buffer_size = 10;
  cfg.max_concurrency = 30;

  core::ForecastConfig forecast_cfg;
  forecast_cfg.update_bytes = 760'000;
  auto result = platform.evaluate_case_study(task, cfg, /*trials=*/5,
                                             /*centralized_epochs=*/6, forecast_cfg);
  std::cout << "[evaluation] centralized AUPR " << result.centralized_metric
            << " vs FL median " << result.fl_metric << " (" << result.performance_diff_pct
            << "%); projected " << result.projected_training_h / 24.0 << " days of training\n";
  std::cout << "  (the ads domain tolerates up to 5% loss for the compliance win)\n";

  // -- 4b. Fairness across device tiers (§3.2): would the hardware criteria
  //        bias model quality against users of older phones? ----------------
  {
    auto best_model = task.make_model(platform.rng());
    std::size_t best = 0;
    for (std::size_t i = 1; i < result.fl_trials.trials.size(); ++i)
      if (result.fl_trials.trials[i].final_metric >
          result.fl_trials.trials[best].final_metric)
        best = i;
    best_model->set_flat_parameters(result.fl_trials.trials[best].final_parameters);
    core::FairnessReport fairness =
        core::evaluate_fairness(*best_model, task, log.client_device, platform.devices());
    std::cout << "[fairness] " << fairness.to_string() << "\n"
              << "  gate: tier gap <= 0.05 AUPR -> "
              << (fairness.fair_within(0.05) ? "PASS" : "RELAX HARDWARE CRITERIA") << "\n";
  }

  // -- 5. Security and privacy: TEE bandwidth budget. ----------------------
  privacy::TeeSecureAggregator tee(privacy::TeeConfig{});
  double mbps = tee.required_mbytes_per_s(result.forecast.updates_per_second, 760'000);
  std::cout << "[security] TEE ingress needed: " << mbps << " MB/s -> "
            << (tee.within_capacity(result.forecast.updates_per_second, 760'000)
                    ? "within" : "OVER")
            << " the enclave limit (paper projects <3MB/s)\n"
            << "  note: SDK distribution opens a hub-and-spoke poisoning surface —\n"
            << "  the host app controlling many participants; flagged for review.\n";
  return 0;
}
