// FLINT quickstart: evaluate whether a small ads-style model is worth moving
// to cross-device federated learning, start to finish in one main().
//
//   1. Benchmark the candidate model across the device fleet.
//   2. Generate an availability trace from (synthetic) session logs under
//      participation criteria.
//   3. Build a federated proxy task and run simulated FedBuff training.
//   4. Compare against the centralized baseline and forecast resources.
//
// Build & run:  ./build/examples/quickstart
//
// Profiling: pass --trace-out trace.json to record a Chrome trace-event file
// (open in Perfetto / chrome://tracing; wall and virtual clocks are separate
// process tracks) plus a metrics JSONL dump (--metrics-out overrides its
// default path, quickstart_metrics.jsonl). With a multi-process transport
// (--transport unix|tcp), --trace-out names a *directory*: the leader and
// each spawned executor write their own trace into it, ready for
// tools/flint_trace_merge.py (DESIGN.md §15). --status-out streams live
// fleet status JSONL for tools/flint_top.py.
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "flint/compress/quantize.h"
#include "flint/core/platform.h"
#include "flint/core/report.h"
#include "flint/core/run_artifact.h"
#include "flint/core/run_spec.h"
#include "flint/data/synthetic_tasks.h"
#include "flint/net/bandwidth_model.h"
#include "flint/obs/telemetry.h"

int main(int argc, char** argv) {
  using namespace flint;

  // Compression is the one flag that changes results (a lossy update round
  // trip), so it alone joins the fixed description in the fingerprint.
  std::string compression = "none";
  core::RunSpec spec("quickstart: ads proxy, 500 clients, fedbuff, seed 42");
  spec.flag("compression", core::FlagKind::kResult, &compression, "none|int8|topk")
      .with_threads()
      .with_kernels()
      .with_telemetry(/*status=*/true)
      .with_artifact("quickstart_report/run_artifact.json")
      .with_checkpoints(10)
      .with_rpc();
  spec.parse_or_exit(argc, argv);

  compress::CompressionConfig compression_cfg;
  if (compression == "int8") compression_cfg.kind = compress::CompressionKind::kInt8;
  if (compression == "topk") compression_cfg.kind = compress::CompressionKind::kTopK;
  // A checkpoint lineage belongs to one (seed, config) run, and the multi-
  // trial sweep varies the seed per trial — so an explicit --checkpoint-dir,
  // or a resume, pins the study to a single trial (DESIGN.md §12).
  const int trials = (spec.resume || !spec.checkpoint_dir.empty()) ? 1 : 3;
  if (spec.checkpoint_dir.empty()) spec.checkpoint_dir = "quickstart_report/checkpoints";
  obs::TelemetryConfig telemetry_cfg = spec.telemetry;
  const bool telemetry_on = telemetry_cfg.metrics_enabled;
  if (telemetry_on && telemetry_cfg.metrics_out.empty())
    telemetry_cfg.metrics_out = "quickstart_metrics.jsonl";

  // Multi-process tracing fans out per process: --trace-out names a run
  // directory; the leader writes leader.trace.json and each executor child
  // writes executor-<i>.trace.json beside it (DESIGN.md §15).
  if ((spec.rpc.kind == fl::TransportKind::kUnix || spec.rpc.kind == fl::TransportKind::kTcp) &&
      !spec.telemetry.trace_out.empty()) {
    spec.rpc.trace_dir = spec.telemetry.trace_out;
    std::filesystem::create_directories(spec.rpc.trace_dir);
    telemetry_cfg.trace_out = spec.rpc.trace_dir + "/leader.trace.json";
  }
  obs::Telemetry telemetry(telemetry_cfg);
  // Ambient for the whole example so the pre-training sections (feature
  // cache replay below) record too, not just the FL trials.
  std::optional<obs::ScopedTelemetry> ambient;
  if (telemetry_on) ambient.emplace(&telemetry);

  core::FlintPlatform platform(/*seed=*/42);
  if (telemetry_on) platform.set_telemetry(&telemetry);

  // --- 1. On-device benchmark of the candidate architecture. -------------
  auto benchmark = platform.benchmark_model('B', /*records=*/5000);
  std::cout << "Model B fleet benchmark: mean " << benchmark.mean_time_s << "s (+-"
            << benchmark.stdev_time_s << "s) per 5000 records, mean CPU "
            << benchmark.mean_cpu_pct << "%\n";

  // --- 2. Availability under participation criteria. ---------------------
  device::SessionGeneratorConfig sessions;
  sessions.clients = 500;
  sessions.days = 14;
  sessions.mean_session_s = 1800.0;
  auto log = platform.generate_session_log(sessions);

  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  criteria.min_battery_pct = 80.0;
  auto trace = platform.build_availability(log, criteria);
  std::cout << "Availability: " << trace.client_count() << " of " << sessions.clients
            << " clients eligible across " << trace.window_count() << " windows\n";

  // --- 2b. Device-cloud feature plumbing (Figure 6): register the model's
  // features and replay a short access pattern so the report shows the
  // device-side cache behaviour the training rounds would see. -------------
  platform.features().register_feature({"member_embedding", feature::FeatureSource::kCloud,
                                        /*value_bytes=*/256, /*retention_days=*/30,
                                        /*cacheable=*/true});
  platform.features().register_feature({"session_context", feature::FeatureSource::kDevice,
                                        /*value_bytes=*/64});
  feature::DeviceFeatureRuntime features(platform.features(), /*cache_bytes=*/16 * 1024);
  for (int pass = 0; pass < 4; ++pass)
    for (std::uint64_t entity = 0; entity < 32; ++entity) {
      features.fetch("member_embedding", entity);
      features.fetch("session_context", entity);
    }
  const auto& cache = features.cache_stats();
  std::cout << "Feature cache: " << cache.hits << " hits / " << cache.misses << " misses\n";

  // --- 3. Federated proxy task + simulated async FL. ---------------------
  data::SyntheticTaskConfig task_cfg;
  task_cfg.domain = data::Domain::kAds;
  task_cfg.clients = 500;
  task_cfg.label_ratio = 0.28;
  auto task = data::make_synthetic_task(task_cfg, platform.rng());
  auto model = task.make_model(platform.rng());

  net::PufferLikeBandwidthModel bandwidth;
  fl::AsyncConfig fl_cfg;
  // Parallel client training: results are bit-identical at any --threads
  // value, only the wall time changes (DESIGN.md §11).
  fl_cfg.inputs.threads = spec.threads;
  fl_cfg.inputs.dataset = &task.train;
  fl_cfg.inputs.dense_dim = task.batch_dense_dim();
  fl_cfg.inputs.model_template = model.get();
  fl_cfg.inputs.trace = &trace;
  fl_cfg.inputs.catalog = &platform.devices();
  fl_cfg.inputs.bandwidth = &bandwidth;
  fl_cfg.inputs.test = &task.test;
  fl_cfg.inputs.domain = task.config.domain;
  fl_cfg.inputs.local.loss = task.loss_kind();
  fl_cfg.inputs.duration = fl::TaskDurationModel::from_spec(ml::model_spec('B'), 1);
  fl_cfg.inputs.max_rounds = 60;
  fl_cfg.inputs.compression = compression_cfg;
  fl_cfg.buffer_size = 10;
  fl_cfg.max_concurrency = 30;

  // Periodic leader checkpoints (§3.4 fault tolerance) — also what gives the
  // profiling run its checkpoint-latency series. With --resume the run
  // restarts from the newest valid checkpoint in the store and finishes
  // bit-identically to an uninterrupted run (DESIGN.md §12).
  auto checkpoints = spec.open_checkpoints(fl_cfg.inputs);
  // Multi-process (or loopback) execution: training leases go to registered
  // executors instead of in-process threads. Like --threads, this changes
  // wall time only — the artifact stays bit-identical to inprocess
  // (DESIGN.md §14).
  auto rpc_runtime = spec.start_rpc(fl_cfg.inputs);

  // --- 4. FL vs centralized, with a resource forecast. --------------------
  core::ForecastConfig forecast;
  forecast.update_bytes = model->update_bytes();
  auto result = platform.evaluate_case_study(task, fl_cfg, trials,
                                             /*centralized_epochs=*/5, forecast);

  if (spec.resume && !result.fl_trials.trials.empty() &&
      result.fl_trials.trials[0].resume_count > 0) {
    std::cout << "\nResumed from checkpoint round "
              << result.fl_trials.trials[0].resumed_from_round << " (resume #"
              << result.fl_trials.trials[0].resume_count << ")\n";
  }
  std::cout << "\nCentralized AUPR: " << result.centralized_metric
            << "\nFL AUPR (median of " << trials << (trials == 1 ? " trial): " : " trials): ")
            << result.fl_metric << " (stdev "
            << result.fl_metric_stdev << ")"
            << "\nPerformance difference: " << result.performance_diff_pct << "%"
            << "\nProjected training time: " << result.projected_training_h << " h"
            << "\nForecast: " << result.forecast.summary() << "\n";

  std::cout << "\nDecision hint: the paper accepts up to 5% AUPR loss for ads when\n"
               "FL removes centralized tracking; this run "
            << (result.performance_diff_pct > -5.0 ? "PASSES" : "FAILS")
            << " that bar.\n";

  // Ship the run into the shared monitoring/review tooling (Figure 3).
  std::size_t best = 0;
  for (std::size_t i = 1; i < result.fl_trials.trials.size(); ++i)
    if (result.fl_trials.trials[i].final_metric > result.fl_trials.trials[best].final_metric)
      best = i;
  core::ReportInputs report;
  report.title = "quickstart ads pilot";
  report.run = &result.fl_trials.trials[best];
  report.forecast = &result.forecast;
  report.centralized_metric = result.centralized_metric;
  report.metric_name = task.metric_name();
  std::string path = core::write_report("quickstart_report", report);
  std::cout << "Full report written to " << path << " (+ CSV series)\n";

  // Machine-readable twin of the report: the schema-versioned run artifact
  // that tools/flint_compare.py diffs across runs.
  core::RunArtifactInputs artifact;
  artifact.run = report.run;
  artifact.name = "quickstart";
  artifact.metric_name = task.metric_name();
  artifact.forecast = &result.forecast;
  artifact.config_text = spec.config_text();
  artifact.scalars = {{"centralized_metric", result.centralized_metric},
                      {"fl_metric_median", result.fl_metric},
                      {"performance_diff_pct", result.performance_diff_pct}};
  core::write_run_artifact(spec.artifact_out, artifact);
  std::cout << "Run artifact written to " << spec.artifact_out << "\n";

  if (telemetry_on) {
    telemetry.snapshot_now();
    telemetry.export_all();
    std::cout << "Telemetry: " << telemetry.metrics().series_count() << " metric series";
    std::cout << " -> " << telemetry_cfg.metrics_out;
    if (!spec.telemetry.trace_out.empty())
      std::cout << "; " << telemetry.tracer().event_count() << " trace spans -> "
                << spec.telemetry.trace_out;
    if (!spec.telemetry.status_out.empty())
      std::cout << "; live status -> " << spec.telemetry.status_out;
    std::cout << "\n";
  }
  return 0;
}
