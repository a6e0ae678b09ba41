// Table 2 reproduction: characteristics of the three proxy datasets, driven
// by the client-quantity profile generator at full population scale
// (Dataset C materializes 16.4M client counts).
//
// Paper:                 A          B           C
//   client population    700,000    1,024,950   16,422,290
//   max records          39,731     103,471     406
//   avg records          99         184         1.53
//   std records          667        374         1.47
//   label ratio          0.28       0.05        0.06
//   lookback days        90         28          61
#include "bench_helpers.h"

#include "flint/data/dataset_stats.h"

namespace {

struct ProfileSpec {
  const char* name;
  flint::data::QuantityProfileConfig quantity;
  double label_ratio;
  int lookback_days;
  const char* paper_row;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace flint;
  core::RunSpec spec("table2: full-population quantity profiles, seed 1002");
  bench::BenchArtifact artifact(spec, argc, argv, "table2_proxy_stats");
  bench::print_header("Table 2: Proxy dataset characteristics",
                      "Quantity profiles sampled at full population scale; "
                      "moments calibrated to the paper's per-dataset statistics");

  std::vector<ProfileSpec> specs = {
      {"DATASET A (ads)",
       {.population = 700'000, .mean_records = 99.0, .std_records = 667.0,
        .max_records = 39'731, .superuser_fraction = 0.002, .superuser_alpha = 1.1},
       0.28, 90, "pop 700,000 | max 39,731 | avg 99 | std 667 | ratio 0.28"},
      {"DATASET B (messaging)",
       {.population = 1'024'950, .mean_records = 184.0, .std_records = 374.0,
        .max_records = 103'471, .superuser_fraction = 0.0005, .superuser_alpha = 1.0},
       0.05, 28, "pop 1,024,950 | max 103,471 | avg 184 | std 374 | ratio 0.05"},
      {"DATASET C (search)",
       {.population = 16'422'290, .mean_records = 1.53, .std_records = 1.47,
        .max_records = 406, .superuser_fraction = 0.00002, .superuser_alpha = 0.9},
       0.06, 61, "pop 16,422,290 | max 406 | avg 1.53 | std 1.47 | ratio 0.06"},
  };

  util::Table t({"", "CLIENT POP.", "MAX RECORDS", "AVG RECORDS", "STD RECORDS",
                 "LABEL RATIO", "LOOKBACK DAYS"});
  util::Rng rng(1002);
  std::size_t spec_idx = 0;
  for (const auto& profile : specs) {
    auto counts = data::sample_quantity_profile(profile.quantity, rng);
    auto stats = data::compute_stats_from_counts(counts, profile.label_ratio, profile.name,
                                                 profile.lookback_days);
    std::string key = "dataset_" + std::to_string(spec_idx++);
    artifact.add_scalar("avg_records." + key, stats.avg_records);
    artifact.add_scalar("std_records." + key, stats.std_records);
    artifact.add_scalar("max_records." + key, static_cast<double>(stats.max_records));
    t.add_row({profile.name,
               util::Table::count(static_cast<std::int64_t>(stats.client_population)),
               util::Table::count(static_cast<std::int64_t>(stats.max_records)),
               util::Table::num(stats.avg_records, 2), util::Table::num(stats.std_records, 1),
               util::Table::num(stats.label_ratio, 2), util::Table::num(stats.lookback_days)});
    bench::print_compare(profile.name, profile.paper_row, "see table row");
  }
  std::cout << "\n" << t.render();
  return 0;
}
