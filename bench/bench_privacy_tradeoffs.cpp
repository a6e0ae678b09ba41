// Privacy & communication trade-off sweeps (paper §3.6: "our experimental
// framework can help developers and security experts evaluate the model and
// resource trade-offs of techniques like FL with differential privacy ...
// [and] secure aggregation"). Two sweeps:
//   (1) FL-DP: noise multiplier vs final AUPR and the epsilon budget;
//   (2) update compression: payload bytes vs final AUPR and comm time.
#include "bench_helpers.h"

#include "flint/privacy/dp.h"
#include "flint/util/stats.h"

namespace {

using namespace flint;

struct Workbench {
  data::FederatedTask task;
  device::DeviceCatalog catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  std::vector<device::AvailabilityWindow> windows;
  std::size_t threads = 1;  // --threads; wall-time only

  explicit Workbench(util::Rng& rng)
      : task([&] {
          data::SyntheticTaskConfig cfg;
          cfg.domain = data::Domain::kAds;
          cfg.clients = 300;
          cfg.mean_records = 30;
          cfg.std_records = 40;
          cfg.max_records = 600;
          cfg.dense_dim = 12;
          cfg.test_examples = 2500;
          return data::make_synthetic_task(cfg, rng);
        }()) {
    for (std::size_t c = 0; c < 300; ++c)
      windows.push_back({c, catalog.sample_device(rng), 0.0, 1e10});
  }

  fl::AsyncConfig base_config(ml::Model& model, const device::AvailabilityTrace& trace) {
    fl::AsyncConfig cfg;
    cfg.inputs.threads = threads;
    cfg.inputs.dataset = &task.train;
    cfg.inputs.dense_dim = task.batch_dense_dim();
    cfg.inputs.model_template = &model;
    cfg.inputs.trace = &trace;
    cfg.inputs.catalog = &catalog;
    cfg.inputs.bandwidth = &bandwidth;
    cfg.inputs.test = &task.test;
    cfg.inputs.domain = task.config.domain;
    cfg.inputs.local.loss = task.loss_kind();
    cfg.inputs.local.clip_norm = 1.0;
    cfg.inputs.duration.base_time_per_example_s = 61.81 / 5000.0;
    cfg.inputs.max_rounds = 60;
    cfg.inputs.reparticipation_gap_s = 0.0;
    cfg.buffer_size = 10;
    cfg.max_concurrency = 25;
    return cfg;
  }
};

}  // namespace

int main(int argc, char** argv) {
  core::RunSpec spec("privacy: DP noise sweep + compression sweep, seed 1013");
  spec.with_threads();
  bench::BenchArtifact artifact(spec, argc, argv, "privacy_tradeoffs");
  bench::print_header("Privacy & communication trade-offs (paper Section 3.6)",
                      "FL-DP noise sweep and update-compression sweep on an ads-like "
                      "task; median of 3 trials per cell");

  util::Rng rng(1013);
  Workbench wb(rng);
  wb.threads = spec.threads;
  auto model = wb.task.make_model(rng);

  // --- Sweep 1: FL-DP. -----------------------------------------------------
  std::cout << util::banner("FL-DP: noise multiplier vs model quality and epsilon");
  util::Table dp_table({"NOISE MULT.", "AUPR (median)", "EPSILON @ 60 rounds (q=3%)"});
  for (double noise : {0.0, 0.3, 0.6, 1.0, 2.0}) {
    std::vector<double> metrics;
    for (int trial = 0; trial < 3; ++trial) {
      device::AvailabilityTrace trace(wb.windows);
      auto cfg = wb.base_config(*model, trace);
      cfg.inputs.seed = 100 + static_cast<std::uint64_t>(trial);
      if (noise > 0.0) {
        privacy::DpConfig dp;
        dp.clip_norm = 1.0;
        dp.noise_multiplier = noise;
        cfg.inputs.dp = dp;
      }
      metrics.push_back(fl::run_fedbuff(cfg).final_metric);
    }
    std::string epsilon = "no DP";
    if (noise > 0.0) {
      privacy::DpConfig dp;
      dp.noise_multiplier = noise;
      privacy::DpAccountant accountant(dp, 10.0 / 300.0);
      accountant.record_rounds(60);
      epsilon = util::Table::num(accountant.epsilon(), 3);
    }
    artifact.add_scalar("dp_aupr.noise_" + std::to_string(static_cast<int>(noise * 10)),
                        util::median(metrics));
    dp_table.add_row({util::Table::num(noise, 1), util::Table::num(util::median(metrics), 4),
                      epsilon});
  }
  std::cout << dp_table.render();
  std::cout << "Expected shape: quality degrades smoothly as noise grows while the\n"
               "epsilon budget tightens — the platform quantifies the trade.\n\n";

  // --- Sweep 2: update compression. ---------------------------------------
  std::cout << util::banner("Update compression: payload vs quality and comm time");
  util::Table c_table({"SCHEME", "UPDATE BYTES", "AUPR (median)", "MEAN ROUND (s)"});
  struct Scheme {
    const char* name;
    compress::CompressionConfig config;
  };
  std::vector<Scheme> schemes = {
      {"raw float32", {}},
      {"int8 quantized", {.kind = compress::CompressionKind::kInt8}},
      {"top-25% sparsified",
       {.kind = compress::CompressionKind::kTopK, .top_k_fraction = 0.25}},
      {"top-5% sparsified",
       {.kind = compress::CompressionKind::kTopK, .top_k_fraction = 0.05}},
  };
  for (const auto& scheme : schemes) {
    std::vector<double> metrics, rounds;
    std::size_t bytes =
        compress::compressed_bytes(model->parameter_count(), scheme.config);
    for (int trial = 0; trial < 3; ++trial) {
      device::AvailabilityTrace trace(wb.windows);
      auto cfg = wb.base_config(*model, trace);
      cfg.inputs.seed = 200 + static_cast<std::uint64_t>(trial);
      cfg.inputs.compression = scheme.config;
      cfg.inputs.duration.update_bytes = bytes;
      auto r = fl::run_fedbuff(cfg);
      metrics.push_back(r.final_metric);
      rounds.push_back(r.metrics.mean_round_duration_s());
    }
    std::string key(scheme.name);
    for (char& c : key)
      if (c == ' ' || c == '-' || c == '%') c = '_';
    artifact.add_scalar("compression_aupr." + key, util::median(metrics));
    artifact.add_scalar("compression_bytes." + key, static_cast<double>(bytes));
    c_table.add_row({scheme.name, util::Table::count(static_cast<std::int64_t>(bytes)),
                     util::Table::num(util::median(metrics), 4),
                     util::Table::num(util::median(rounds), 2)});
  }
  std::cout << c_table.render();
  std::cout << "Expected shape: int8 is nearly free; aggressive sparsification trades\n"
               "quality for a much smaller TEE/network footprint.\n";
  return 0;
}
