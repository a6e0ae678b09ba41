// Table 3 reproduction: projected training-time speedup of async FedBuff
// over sync FedAvg for three workloads, plus client tasks started and total
// client computation.
//
// Paper:                    TASK A     TASK B     TASK C
//   FedBuff speed-up        1.2x       6x         2x
//   client tasks started    48.8k      32.3k      610k
//   client computation      7.5 hrs    6.8 days   25.9 days
//
// Mechanism being reproduced (§3.4): sync parallelism is structurally capped
// at cohort x over-commitment and every round waits for the cohort-th
// completion, while async keeps `max_concurrency` devices busy and tolerates
// stale updates. The async advantage therefore grows with the spread of the
// client task durations: Task A has tight durations (1.2x), Task B is
// heavy-tailed (6x), Task C sits in between (2x).
#include "bench_helpers.h"

namespace {

using namespace flint;

struct TaskSpec {
  const char* name;
  std::size_t clients;
  data::QuantityProfileConfig quantity;  ///< |D_k| distribution
  int local_epochs;                      ///< E in the duration formula
  double per_example_s;                  ///< fleet-mean training time / example
  double jitter_sigma;                   ///< device run-to-run spread
  std::uint64_t update_bytes;            ///< M
  std::uint64_t target_aggregations;     ///< convergence proxy
  std::size_t cohort;                    ///< sync cohort = async buffer
  std::size_t async_concurrency;
  std::uint64_t max_staleness;
  const char* paper_speedup;
  const char* paper_tasks;
  const char* paper_compute;
};

struct ModeResult {
  double duration_s = 0.0;
  std::uint64_t tasks_started = 0;
  double compute_s = 0.0;
};

ModeResult run_mode(const TaskSpec& spec, bool async, std::size_t threads,
                    const std::vector<std::uint32_t>& counts,
                    const device::AvailabilityTrace& trace,
                    const device::DeviceCatalog& catalog, const net::BandwidthModel& bandwidth) {
  fl::RunInputs inputs;
  inputs.threads = threads;
  inputs.model_free = true;
  inputs.client_example_counts = &counts;
  inputs.trace = &trace;
  inputs.catalog = &catalog;
  inputs.bandwidth = &bandwidth;
  inputs.duration.base_time_per_example_s = spec.per_example_s;
  inputs.duration.local_epochs = spec.local_epochs;
  inputs.duration.jitter_sigma = spec.jitter_sigma;
  inputs.duration.update_bytes = spec.update_bytes;
  inputs.max_rounds = spec.target_aggregations;
  inputs.reparticipation_gap_s = 1800.0;
  inputs.seed = 7;

  ModeResult out;
  if (async) {
    fl::AsyncConfig cfg;
    cfg.inputs = inputs;
    cfg.buffer_size = spec.cohort;
    cfg.max_concurrency = spec.async_concurrency;
    cfg.max_staleness = spec.max_staleness;
    fl::RunResult r = fl::run_fedbuff(cfg);
    out = {r.virtual_duration_s, r.metrics.tasks_started(), r.metrics.client_compute_s()};
  } else {
    fl::SyncConfig cfg;
    cfg.inputs = inputs;
    cfg.cohort_size = spec.cohort;
    cfg.overcommit = 1.3;
    cfg.round_deadline_s = 4.0 * 3600.0;
    fl::RunResult r = fl::run_fedavg(cfg);
    out = {r.virtual_duration_s, r.metrics.tasks_started(), r.metrics.client_compute_s()};
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  core::RunSpec spec("table3: model-free sync-vs-async, 3 workloads, seed 7/1003; "
                     "model-full fedbuff ads-400 seed 7");
  spec.with_threads().with_checkpoints(10).with_rpc().with_telemetry(false);
  bench::BenchArtifact artifact(spec, argc, argv, "table3_fedbuff_speedup");
  bench::BenchTelemetry profiling(spec);
  std::size_t threads = spec.threads;
  bench::print_header("Table 3: Projected FedBuff speedup over FedAvg",
                      "Model-free system simulation; convergence proxy = fixed "
                      "aggregation count per task; async concurrency exceeds the "
                      "sync cohort's structural parallelism cap");

  // Task A: ads-like. Tight task durations (narrow quantity spread, modest
  // jitter) keep sync rounds close to the mean -> small async gain.
  // Task B: messaging-like. Heavy-tailed |D_k| makes sync rounds wait on
  // stragglers every round -> large async gain.
  // Task C: search-like. Tiny partitions, network-dominated durations with
  // Puffer-like bandwidth spread -> intermediate gain, huge task volume.
  std::vector<TaskSpec> tasks = {
      {"TASK A", 20'000,
       {.population = 20'000, .mean_records = 99, .std_records = 40, .max_records = 400},
       1, 61.81 / 5000.0, 0.10, 760'000, 2400, 20, 24, 40,
       "1.2x", "48.8k", "7.5 hrs"},
      {"TASK B", 20'000,
       {.population = 20'000, .mean_records = 184, .std_records = 900, .max_records = 40'000,
        .superuser_fraction = 0.01, .superuser_alpha = 1.0},
       7, 70.13 / 5000.0, 0.35, 1'560'000, 1600, 20, 150, 80,
       "6x", "32.3k", "6.8 days"},
      {"TASK C", 100'000,
       {.population = 100'000, .mean_records = 1.53, .std_records = 1.47, .max_records = 406},
       1, 2.4, 0.20, 380'000, 30'500, 20, 36, 50,
       "2x", "610k", "25.9 days"},
  };

  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  util::Rng rng(1003);

  util::Table t({"", "FEDBUFF SPEED-UP", "(paper)", "CLIENT TASKS STARTED", "(paper)",
                 "CLIENT COMPUTATION", "(paper)"});
  for (const auto& spec : tasks) {
    auto counts = data::sample_quantity_profile(spec.quantity, rng);
    // Long always-on windows: Table 3 isolates scheduling effects; the
    // availability interplay is Figure 8's subject.
    std::vector<device::AvailabilityWindow> windows;
    windows.reserve(spec.clients);
    for (std::size_t c = 0; c < spec.clients; ++c)
      windows.push_back({c, catalog.sample_device(rng), 0.0, 1e10});
    device::AvailabilityTrace trace(std::move(windows));

    ModeResult sync = run_mode(spec, /*async=*/false, threads, counts, trace, catalog, bandwidth);
    ModeResult async = run_mode(spec, /*async=*/true, threads, counts, trace, catalog, bandwidth);
    double speedup = sync.duration_s / async.duration_s;
    std::string key(spec.name);
    for (char& c : key)
      if (c == ' ') c = '_';
    artifact.add_scalar("speedup." + key, speedup);
    artifact.add_scalar("async_tasks_started." + key,
                        static_cast<double>(async.tasks_started));
    artifact.add_scalar("async_compute_s." + key, async.compute_s);

    char speed_buf[32];
    std::snprintf(speed_buf, sizeof(speed_buf), "%.1fx", speedup);
    t.add_row({spec.name, speed_buf, spec.paper_speedup,
               util::Table::count(static_cast<std::int64_t>(async.tasks_started)),
               spec.paper_tasks, bench::human_duration(async.compute_s), spec.paper_compute});

    std::cout << spec.name << ": sync " << bench::human_duration(sync.duration_s) << " ("
              << sync.tasks_started << " tasks) vs async "
              << bench::human_duration(async.duration_s) << " (" << async.tasks_started
              << " tasks)\n";
  }
  // --- Model-full section: actual local SGD under FedBuff, the workload the
  // parallel training runtime exists for. Wall time scales with --threads;
  // every simulated quantity (and the artifact's model/system sections) is
  // bit-identical at any thread count, which `tools/flint_compare.py` between
  // a --threads 1 and a --threads N artifact verifies.
  {
    bench::print_header("Model-full FedBuff (parallel training runtime)",
                        "Ads-like task, 400 clients, concurrency 32; wall time is the "
                        "only --threads-dependent output");
    util::Rng mf_rng(1003);
    data::SyntheticTaskConfig task_cfg;
    task_cfg.domain = data::Domain::kAds;
    task_cfg.clients = 400;
    // Sized so each client task carries real SGD work (~ms, not µs): with
    // sub-millisecond tasks the pool's dispatch overhead would swamp the
    // parallel win this section exists to measure.
    task_cfg.mean_records = 200;
    task_cfg.std_records = 150;
    task_cfg.max_records = 2000;
    task_cfg.dense_dim = 16;
    task_cfg.test_examples = 3000;
    data::FederatedTask task = data::make_synthetic_task(task_cfg, mf_rng);
    auto model = task.make_model(mf_rng);
    std::vector<device::AvailabilityWindow> windows;
    windows.reserve(task_cfg.clients);
    for (std::size_t c = 0; c < task_cfg.clients; ++c)
      windows.push_back({c, catalog.sample_device(mf_rng), 0.0, 1e10});
    device::AvailabilityTrace trace(std::move(windows));

    fl::AsyncConfig cfg;
    cfg.inputs.threads = threads;
    cfg.inputs.dataset = &task.train;
    cfg.inputs.dense_dim = task.batch_dense_dim();
    cfg.inputs.model_template = model.get();
    cfg.inputs.trace = &trace;
    cfg.inputs.catalog = &catalog;
    cfg.inputs.bandwidth = &bandwidth;
    cfg.inputs.test = &task.test;
    cfg.inputs.domain = task.config.domain;
    cfg.inputs.local.loss = task.loss_kind();
    cfg.inputs.local.epochs = 3;
    cfg.inputs.duration.base_time_per_example_s = 61.81 / 5000.0;
    cfg.inputs.max_rounds = 60;
    cfg.inputs.eval_every_rounds = 10;
    cfg.inputs.reparticipation_gap_s = 0.0;
    cfg.inputs.seed = 7;
    cfg.buffer_size = 10;
    cfg.max_concurrency = 32;
    // Opt-in crash-safety plumbing for the representative model-full run:
    // --checkpoint-dir enables periodic checkpoints, --resume restarts from
    // the newest one (bit-identical to an uninterrupted run, DESIGN.md §12).
    auto checkpoints = spec.open_checkpoints(cfg.inputs);
    // --transport moves the local SGD onto rpc executors; the simulated
    // quantities (and the artifact) stay bit-identical, like --threads.
    auto rpc = spec.start_rpc(cfg.inputs);

    auto wall_start = std::chrono::steady_clock::now();
    fl::RunResult r = fl::run_fedbuff(cfg);
    double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

    artifact.set_run(r, task.metric_name());
    artifact.add_scalar("model_full.final_metric", r.final_metric);
    artifact.add_scalar("model_full.virtual_duration_s", r.virtual_duration_s);
    artifact.add_scalar("model_full.tasks_started",
                        static_cast<double>(r.metrics.tasks_started()));
    artifact.add_scalar("model_full.rounds", static_cast<double>(r.rounds));
    artifact.add_scalar("model_full.train.wall_time_s", wall_s);
    std::cout << "  threads=" << threads << "  wall=" << util::Table::num(wall_s, 2)
              << "s  " << task.metric_name() << "=" << util::Table::num(r.final_metric, 4)
              << "  rounds=" << r.rounds << "  tasks=" << r.metrics.tasks_started() << "\n";
  }

  std::cout << "\n" << t.render();
  std::cout << "\nNote: client populations are scaled down from the paper's production\n"
               "universe (millions of devices) to keep this bench laptop-fast; the\n"
               "speed-up ratios, task ordering, and task counts are the reproduced\n"
               "quantities.\n";
  return 0;
}
