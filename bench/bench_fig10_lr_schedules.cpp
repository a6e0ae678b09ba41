// Figure 10 reproduction: AUPR of an ads-like model trained with two
// exponential-decay learning-rate schedules, N=5 trials each. The paper's
// point: model performance under random client sampling can be highly
// variable, and a good LR schedule improves training stability.
#include "bench_helpers.h"

#include <map>

#include "flint/util/stats.h"

int main(int argc, char** argv) {
  using namespace flint;
  core::RunSpec spec("fig10: ads proxy, 400 clients, fedbuff, 5 trials, seed 1012");
  spec.with_threads();
  bench::BenchArtifact artifact(spec, argc, argv, "fig10_lr_schedules");
  std::size_t threads = spec.threads;
  bench::print_header("Figure 10: AUPR under two exponential-decay LR schedules (N=5)",
                      "Real SGD on the ads-like proxy; per-round AUPR mean +- stdev "
                      "across trials");

  util::Rng rng(1012);
  data::SyntheticTaskConfig tcfg;
  tcfg.domain = data::Domain::kAds;
  tcfg.clients = 400;
  tcfg.mean_records = 30;
  tcfg.std_records = 90;
  tcfg.max_records = 1200;
  tcfg.label_ratio = 0.28;
  tcfg.heterogeneity = 0.8;  // strong heterogeneity drives the instability
  tcfg.dense_dim = 16;
  tcfg.test_examples = 2500;
  auto task = data::make_synthetic_task(tcfg, rng);

  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  std::vector<device::AvailabilityWindow> windows;
  for (std::size_t c = 0; c < tcfg.clients; ++c)
    windows.push_back({c, catalog.sample_device(rng), 0.0, 1e10});

  struct Schedule {
    const char* name;
    fl::LrSchedule lr;
  };
  // "Good": trains fast, then decays — stable. "Aggressive": far too hot
  // with near-no decay — unstable under heterogeneous client sampling.
  std::vector<Schedule> schedules = {
      {"good: 0.40 * 0.80^(r/15)", fl::LrSchedule::exponential_decay(0.40, 0.80, 15)},
      {"aggressive: 3.0 * 0.995^(r/15)", fl::LrSchedule::exponential_decay(3.0, 0.995, 15)},
  };

  constexpr std::uint64_t kRounds = 60;
  constexpr std::uint64_t kEvalEvery = 5;
  constexpr int kTrials = 5;

  std::size_t schedule_idx = 0;
  for (const auto& schedule : schedules) {
    // round -> metric per trial.
    std::map<std::uint64_t, std::vector<double>> curves;
    for (int trial = 0; trial < kTrials; ++trial) {
      util::Rng model_rng(500 + static_cast<std::uint64_t>(trial));
      auto model = task.make_model(model_rng);
      device::AvailabilityTrace trace(windows);
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
      cfg.inputs.client_lr = schedule.lr;
      cfg.inputs.duration.base_time_per_example_s = 61.81 / 5000.0;
      cfg.inputs.duration.update_bytes = 760'000;
      cfg.inputs.max_rounds = kRounds;
      cfg.inputs.eval_every_rounds = kEvalEvery;
      cfg.inputs.reparticipation_gap_s = 0.0;
      cfg.inputs.seed = 900 + static_cast<std::uint64_t>(trial);
      cfg.buffer_size = 10;
      cfg.max_concurrency = 30;
      fl::RunResult r = fl::run_fedbuff(cfg);
      for (const auto& point : r.eval_curve) curves[point.round].push_back(point.metric);
      if (schedule_idx == 0 && trial == 0) artifact.set_run(r, "AUPR");
      artifact.add_scalar("final_aupr.schedule_" + std::to_string(schedule_idx) + ".trial_" +
                              std::to_string(trial),
                          r.final_metric);
    }
    std::cout << "schedule " << schedule.name << ":\n  round:  ";
    for (const auto& [round, _] : curves) std::printf("%8llu", static_cast<unsigned long long>(round));
    std::cout << "\n  mean:   ";
    std::vector<double> stdevs;
    for (const auto& [_, metrics] : curves) {
      auto s = util::summarize(metrics);
      std::printf("%8.4f", s.mean);
      stdevs.push_back(s.stddev);
    }
    std::cout << "\n  stdev:  ";
    for (double s : stdevs) std::printf("%8.4f", s);
    double mean_stdev = util::summarize(stdevs).mean;
    std::printf("\n  mean trial-to-trial stdev over rounds: %.4f\n\n", mean_stdev);
    artifact.add_scalar("mean_stdev.schedule_" + std::to_string(schedule_idx), mean_stdev);
    ++schedule_idx;
  }
  std::cout << "Paper's observation to check: the good schedule's curves are tighter\n"
               "(lower stdev band) and end higher than the aggressive schedule's.\n";
  return 0;
}
