// Figure 5 reproduction: the client data-quantity distribution of the three
// proxy datasets, shown as log-spaced CCDFs ("data sizes between clients in
// different domains can greatly vary").
#include "bench_helpers.h"

#include "flint/util/histogram.h"

int main(int argc, char** argv) {
  using namespace flint;
  core::RunSpec spec("fig5: 200k-client samples of the Table 2 profiles, seed 1009");
  bench::BenchArtifact artifact(spec, argc, argv, "fig5_quantity_dist");
  bench::print_header("Figure 5: Client data-quantity distributions (CCDF)",
                      "P(records/client > x) at log-spaced x for datasets A, B, C "
                      "(200k-client samples of the Table 2 profiles)");

  struct Spec {
    const char* name;
    data::QuantityProfileConfig quantity;
  };
  std::vector<Spec> specs = {
      {"A (ads)",
       {.population = 200'000, .mean_records = 99.0, .std_records = 667.0,
        .max_records = 39'731, .superuser_fraction = 0.002, .superuser_alpha = 1.1}},
      {"B (messaging)",
       {.population = 200'000, .mean_records = 184.0, .std_records = 374.0,
        .max_records = 103'471}},
      {"C (search)",
       {.population = 200'000, .mean_records = 1.53, .std_records = 1.47,
        .max_records = 406}},
  };

  util::Rng rng(1009);
  std::size_t spec_idx = 0;
  for (const auto& profile : specs) {
    auto counts = data::sample_quantity_profile(profile.quantity, rng);
    std::vector<double> values(counts.begin(), counts.end());
    auto ccdf = util::log_ccdf(values, 14);
    double total = 0.0;
    for (double v : values) total += v;
    artifact.add_scalar("mean_records.dataset_" + std::to_string(spec_idx++),
                        values.empty() ? 0.0 : total / static_cast<double>(values.size()));
    std::cout << "dataset " << profile.name << ":\n";
    std::cout << "  records/client: ";
    for (const auto& p : ccdf) std::printf("%9.3g", p.value);
    std::cout << "\n  P(X > x):       ";
    for (const auto& p : ccdf) std::printf("%9.3g", p.fraction);
    std::cout << "\n\n";
  }
  std::cout << "Shape check (paper): A and B have heavy multi-decade tails; C's\n"
               "clients hold only a handful of records each.\n";
  return 0;
}
