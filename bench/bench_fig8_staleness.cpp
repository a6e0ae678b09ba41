// Figure 8 reproduction: succeeded / interrupted / stale client tasks under
// different concurrency and max-staleness settings in FedBuff.
//
// Paper's findings: higher concurrency increases both client tasks started
// and wasted tasks; higher staleness tolerance decreases stale tasks.
#include "bench_helpers.h"

int main(int argc, char** argv) {
  using namespace flint;
  core::RunSpec spec("fig8: 40k clients, model-free fedbuff grid, seed 21");
  spec.with_threads();
  bench::BenchArtifact artifact(spec, argc, argv, "fig8_staleness");
  std::size_t threads = spec.threads;
  bench::print_header("Figure 8: Task outcomes vs concurrency and max staleness",
                      "FedBuff over realistic (short-window) availability; fixed "
                      "aggregation budget per cell");

  util::Rng rng(1011);
  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;

  // Sized so the concurrency knob actually binds: the steady-state number
  // of running tasks is (arrival flux) x (task duration) ~ 600, so caps of
  // 100-800 sweep from saturated to slack, as in the paper's figure.
  constexpr std::size_t kClients = 40'000;
  data::QuantityProfileConfig q;
  q.population = kClients;
  q.mean_records = 3000;
  q.std_records = 3000;
  q.max_records = 12'000;
  auto counts = data::sample_quantity_profile(q, rng);

  // Hour-scale availability windows with a spread; heavyweight tail tasks
  // overrun their window and get interrupted.
  std::vector<device::AvailabilityWindow> base_windows;
  for (std::size_t c = 0; c < kClients; ++c) {
    double start = rng.uniform(0.0, 6.0 * 3600.0);
    for (int w = 0; w < 8; ++w) {
      double len = rng.lognormal(std::log(3600.0), 0.7);
      base_windows.push_back({c, catalog.sample_device(rng), start, start + len});
      start += len + rng.uniform(2.0 * 3600.0, 10.0 * 3600.0);
    }
  }
  std::sort(base_windows.begin(), base_windows.end(),
            [](const device::AvailabilityWindow& a, const device::AvailabilityWindow& b) {
              return a.start < b.start;
            });

  util::Table t({"CONCURRENCY", "MAX STALENESS", "STARTED", "SUCCEEDED", "INTERRUPTED",
                 "STALE", "WASTE %"});
  for (std::size_t concurrency : {100u, 200u, 400u, 800u}) {
    for (std::uint64_t staleness : {5u, 20u, 100u}) {
      device::AvailabilityTrace trace(base_windows);
      fl::AsyncConfig cfg;
      cfg.inputs.threads = threads;
      cfg.inputs.model_free = true;
      cfg.inputs.client_example_counts = &counts;
      cfg.inputs.trace = &trace;
      cfg.inputs.catalog = &catalog;
      cfg.inputs.bandwidth = &bandwidth;
      // A heavyweight task (Model-D-like per-example cost, 5 local epochs)
      // whose tail durations exceed typical availability windows — the
      // regime where interruption and staleness accounting matter.
      cfg.inputs.duration.base_time_per_example_s = 70.13 / 5000.0;
      cfg.inputs.duration.local_epochs = 5;
      cfg.inputs.duration.jitter_sigma = 0.4;
      cfg.inputs.duration.update_bytes = 1'500'000;
      cfg.inputs.reparticipation_gap_s = 3600.0;
      cfg.inputs.max_rounds = 150;
      cfg.inputs.seed = 21;
      cfg.buffer_size = 20;
      cfg.max_concurrency = concurrency;
      cfg.max_staleness = staleness;
      fl::RunResult r = fl::run_fedbuff(cfg);
      const auto& m = r.metrics;
      std::string cell =
          "c" + std::to_string(concurrency) + ".s" + std::to_string(staleness);
      artifact.add_scalar("waste_fraction." + cell, m.waste_fraction());
      artifact.add_scalar("tasks_started." + cell, static_cast<double>(m.tasks_started()));
      if (concurrency == 800u && staleness == 100u) artifact.set_run(r, "none (model-free)");
      t.add_row({util::Table::num(static_cast<double>(concurrency)),
                 util::Table::num(static_cast<double>(staleness)),
                 util::Table::count(static_cast<std::int64_t>(m.tasks_started())),
                 util::Table::count(static_cast<std::int64_t>(m.tasks_succeeded())),
                 util::Table::count(static_cast<std::int64_t>(m.tasks_interrupted())),
                 util::Table::count(static_cast<std::int64_t>(m.tasks_stale())),
                 util::Table::pct(m.waste_fraction())});
    }
  }
  std::cout << t.render();
  std::cout << "\nPaper trends to check: (1) started and wasted tasks grow with\n"
               "concurrency; (2) stale tasks shrink as the staleness limit rises.\n";
  return 0;
}
