// Ablations for the design choices DESIGN.md calls out:
//   (a) sync over-commitment factor: round duration vs wasted work;
//   (b) FedBuff staleness weighting on/off: final model quality;
//   (c) executor partitioning: round-robin vs balanced under quantity skew;
//   (d) feature hashing bucket count: storage vs collision rate (the §4.1
//       vocab-file vs hashing trade).
#include "bench_helpers.h"

#include "flint/data/partitioner.h"
#include "flint/feature/feature_hashing.h"
#include "flint/feature/vocab.h"
#include "flint/util/stats.h"

namespace {

using namespace flint;

// Set by main; the ablations feed their headline numbers into it.
bench::BenchArtifact* g_artifact = nullptr;
std::size_t g_threads = 1;  // --threads; wall-time only, never in config_text

void ablate_overcommit() {
  std::cout << util::banner("Ablation (a): FedAvg over-commitment factor");
  util::Rng rng(31);
  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  constexpr std::size_t kClients = 10'000;
  data::QuantityProfileConfig q;
  q.population = kClients;
  q.mean_records = 150;
  q.std_records = 450;
  q.max_records = 8000;
  auto counts = data::sample_quantity_profile(q, rng);
  std::vector<device::AvailabilityWindow> windows;
  for (std::size_t c = 0; c < kClients; ++c)
    windows.push_back({c, catalog.sample_device(rng), 0.0, 1e10});

  util::Table t({"OVERCOMMIT", "MEAN ROUND (s)", "STRAGGLERS (stale)", "WASTE %"});
  for (double factor : {1.0, 1.15, 1.3, 1.5, 2.0}) {
    device::AvailabilityTrace trace(windows);
    fl::SyncConfig cfg;
    cfg.inputs.threads = g_threads;
    cfg.inputs.model_free = true;
    cfg.inputs.client_example_counts = &counts;
    cfg.inputs.trace = &trace;
    cfg.inputs.catalog = &catalog;
    cfg.inputs.bandwidth = &bandwidth;
    cfg.inputs.duration.base_time_per_example_s = 61.81 / 5000.0;
    cfg.inputs.duration.update_bytes = 760'000;
    cfg.inputs.max_rounds = 150;
    cfg.inputs.reparticipation_gap_s = 1800.0;
    cfg.inputs.seed = 3;
    cfg.cohort_size = 20;
    cfg.overcommit = factor;
    fl::RunResult r = fl::run_fedavg(cfg);
    g_artifact->add_scalar("overcommit_waste.x" + std::to_string(static_cast<int>(factor * 100)),
                           r.metrics.waste_fraction());
    t.add_row({util::Table::num(factor, 2),
               util::Table::num(r.metrics.mean_round_duration_s(), 1),
               util::Table::count(static_cast<std::int64_t>(r.metrics.tasks_stale())),
               util::Table::pct(r.metrics.waste_fraction())});
  }
  std::cout << t.render();
  std::cout << "Expected: higher over-commitment shortens rounds (drops stragglers\n"
               "faster) but wastes more device work.\n\n";
}

void ablate_staleness_weighting() {
  std::cout << util::banner("Ablation (b): FedBuff staleness weighting");
  util::Rng rng(32);
  data::SyntheticTaskConfig tcfg;
  tcfg.clients = 300;
  tcfg.mean_records = 25;
  tcfg.std_records = 120;  // heavy skew -> genuinely stale slow clients
  tcfg.max_records = 2000;
  tcfg.dense_dim = 12;
  tcfg.heterogeneity = 0.6;
  tcfg.test_examples = 2000;
  auto task = data::make_synthetic_task(tcfg, rng);
  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  std::vector<device::AvailabilityWindow> windows;
  for (std::size_t c = 0; c < tcfg.clients; ++c)
    windows.push_back({c, catalog.sample_device(rng), 0.0, 1e10});

  util::Table t({"STALENESS WEIGHTING", "FINAL AUPR (median of 3)", "MEAN STALENESS"});
  for (bool weighting : {true, false}) {
    std::vector<double> metrics;
    double staleness = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
      util::Rng mrng(600 + static_cast<std::uint64_t>(trial));
      auto model = task.make_model(mrng);
      device::AvailabilityTrace trace(windows);
      fl::AsyncConfig cfg;
      cfg.inputs.threads = g_threads;
      cfg.inputs.dataset = &task.train;
      cfg.inputs.dense_dim = task.batch_dense_dim();
      cfg.inputs.model_template = model.get();
      cfg.inputs.trace = &trace;
      cfg.inputs.catalog = &catalog;
      cfg.inputs.bandwidth = &bandwidth;
      cfg.inputs.test = &task.test;
      cfg.inputs.domain = task.config.domain;
      cfg.inputs.local.loss = task.loss_kind();
      cfg.inputs.duration.base_time_per_example_s = 61.81 / 5000.0;
      cfg.inputs.duration.update_bytes = 500'000;
      cfg.inputs.max_rounds = 50;
      cfg.inputs.reparticipation_gap_s = 0.0;
      cfg.inputs.seed = 700 + static_cast<std::uint64_t>(trial);
      cfg.buffer_size = 10;
      cfg.max_concurrency = 80;  // high concurrency -> real staleness
      cfg.max_staleness = 100;
      cfg.staleness_weighting = weighting;
      fl::RunResult r = fl::run_fedbuff(cfg);
      metrics.push_back(r.final_metric);
      for (const auto& round : r.metrics.rounds()) staleness += round.mean_staleness;
      staleness /= static_cast<double>(std::max<std::size_t>(1, r.metrics.rounds().size()));
    }
    g_artifact->add_scalar(std::string("staleness_weighting_aupr.") +
                               (weighting ? "on" : "off"),
                           util::median(metrics));
    t.add_row({weighting ? "1/sqrt(1+s) (FedBuff)" : "uniform",
               util::Table::num(util::median(metrics), 4), util::Table::num(staleness, 2)});
  }
  std::cout << t.render();
  std::cout << "At low mean staleness the discount mostly down-weights useful\n"
               "updates; its protection matters in high-staleness regimes (Fig 8).\n\n";
}

void ablate_partitioning() {
  std::cout << util::banner("Ablation (c): executor partitioning under quantity skew");
  util::Rng rng(33);
  data::SyntheticTaskConfig tcfg;
  tcfg.clients = 2000;
  tcfg.mean_records = 30;
  tcfg.std_records = 200;
  tcfg.max_records = 20'000;
  tcfg.dense_dim = 4;
  tcfg.test_examples = 100;
  auto task = data::make_synthetic_task(tcfg, rng);

  util::Table t({"STRATEGY", "MAX/MIN EXECUTOR LOAD", "MAX EXECUTOR EXAMPLES"});
  for (bool balanced : {false, true}) {
    auto parts = balanced ? data::partition_balanced(task.train, 20)
                          : data::partition_round_robin(task.train, 20);
    std::vector<std::size_t> load(20, 0);
    for (std::size_t p = 0; p < 20; ++p)
      for (auto client : parts.partitions[p]) load[p] += task.train.client(client).size();
    auto [mn, mx] = std::minmax_element(load.begin(), load.end());
    g_artifact->add_scalar(std::string("partition_load_ratio.") +
                               (balanced ? "balanced" : "round_robin"),
                           static_cast<double>(*mx) / std::max<std::size_t>(1, *mn));
    t.add_row({balanced ? "balanced (LPT)" : "round-robin",
               util::Table::num(static_cast<double>(*mx) / std::max<std::size_t>(1, *mn), 2),
               util::Table::count(static_cast<std::int64_t>(*mx))});
  }
  std::cout << t.render();
  std::cout << "The paper partitions round-robin; balanced (LPT) assignment narrows\n"
               "executor-load spread under superuser skew, reducing straggler\n"
               "executors in the simulation cluster.\n\n";
}

void ablate_hashing() {
  std::cout << util::banner("Ablation (d): vocab files vs feature hashing (§4.1)");
  // A 70k-token vocabulary like the ads case study's high-cardinality fields.
  std::vector<std::pair<std::string, std::uint64_t>> freqs;
  std::vector<std::string> tokens;
  for (int i = 0; i < 70'000; ++i) {
    std::string tok = "feat_" + std::to_string(i * 7919 % 1'000'000);
    freqs.push_back({tok, static_cast<std::uint64_t>(70'000 - i)});
    tokens.push_back(tok);
  }
  feature::Vocab vocab = feature::Vocab::build(freqs, 70'000);
  std::cout << "vocab asset: " << util::Table::num(
                   static_cast<double>(vocab.asset_bytes()) / 1e6, 2)
            << " MB on device (paper cites 1.28MB for one high-cardinality field)\n\n";

  util::Table t({"HASH BUCKETS", "ASSET BYTES", "COLLISION RATE", "EXPECTED"});
  for (std::size_t buckets : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    feature::FeatureHasher hasher(buckets);
    double measured = feature::measured_collision_rate(tokens, hasher);
    double expected = feature::expected_collision_rate(tokens.size(), buckets);
    g_artifact->add_scalar("collision_rate.buckets_" + std::to_string(buckets), measured);
    t.add_row({util::Table::count(static_cast<std::int64_t>(buckets)), "0",
               util::Table::pct(measured), util::Table::pct(expected)});
  }
  std::cout << t.render();
  std::cout << "Hashing removes the vocab asset entirely; the cost is the collision\n"
               "rate, which falls geometrically with bucket count (Weinberger 2009).\n";
}

}  // namespace

void ablate_server_momentum() {
  std::cout << util::banner("Ablation (e): server momentum (FedAvgM) and FedProx");
  util::Rng rng(34);
  data::SyntheticTaskConfig tcfg;
  tcfg.clients = 250;
  tcfg.mean_records = 25;
  tcfg.std_records = 40;
  tcfg.dense_dim = 12;
  tcfg.heterogeneity = 0.8;
  tcfg.test_examples = 2000;
  auto task = data::make_synthetic_task(tcfg, rng);
  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  std::vector<device::AvailabilityWindow> windows;
  for (std::size_t c = 0; c < tcfg.clients; ++c)
    windows.push_back({c, catalog.sample_device(rng), 0.0, 1e10});

  struct Variant {
    const char* name;
    double server_momentum;
    double prox_mu;
  };
  util::Table t({"VARIANT", "FINAL AUPR (median of 3)"});
  for (Variant v : {Variant{"plain FedBuff", 0.0, 0.0},
                    Variant{"+ server momentum 0.9", 0.9, 0.0},
                    Variant{"+ FedProx mu=0.1", 0.0, 0.1},
                    Variant{"+ both", 0.9, 0.1}}) {
    std::vector<double> metrics;
    for (int trial = 0; trial < 3; ++trial) {
      util::Rng mrng(800 + static_cast<std::uint64_t>(trial));
      auto model = task.make_model(mrng);
      device::AvailabilityTrace trace(windows);
      fl::AsyncConfig cfg;
      cfg.inputs.threads = g_threads;
      cfg.inputs.dataset = &task.train;
      cfg.inputs.dense_dim = task.batch_dense_dim();
      cfg.inputs.model_template = model.get();
      cfg.inputs.trace = &trace;
      cfg.inputs.catalog = &catalog;
      cfg.inputs.bandwidth = &bandwidth;
      cfg.inputs.test = &task.test;
      cfg.inputs.domain = task.config.domain;
      cfg.inputs.local.loss = task.loss_kind();
      cfg.inputs.local.prox_mu = v.prox_mu;
      cfg.inputs.server_momentum = v.server_momentum;
      cfg.inputs.duration.base_time_per_example_s = 61.81 / 5000.0;
      cfg.inputs.duration.update_bytes = 500'000;
      cfg.inputs.max_rounds = 40;
      cfg.inputs.reparticipation_gap_s = 0.0;
      cfg.inputs.seed = 900 + static_cast<std::uint64_t>(trial);
      cfg.buffer_size = 10;
      cfg.max_concurrency = 30;
      metrics.push_back(fl::run_fedbuff(cfg).final_metric);
    }
    t.add_row({v.name, util::Table::num(util::median(metrics), 4)});
  }
  std::cout << t.render();
  std::cout << "Optimizer extensions under strong heterogeneity; FedProx bounds\n"
               "client drift, momentum smooths the buffered server updates.\n";
}

int main(int argc, char** argv) {
  core::RunSpec spec("ablations: overcommit/staleness/partitioning/hashing/momentum");
  spec.with_threads();
  bench::BenchArtifact artifact(spec, argc, argv, "ablation_design");
  g_artifact = &artifact;
  g_threads = spec.threads;
  bench::print_header("Design ablations", "DESIGN.md §5 — the design choices worth measuring");
  ablate_overcommit();
  ablate_staleness_weighting();
  ablate_partitioning();
  ablate_hashing();
  ablate_server_momentum();
  return 0;
}
