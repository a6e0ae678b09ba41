// Figure 2 reproduction: normalized device availability over one week under
// strict participation criteria. The paper reports daily peaks with troughs
// dropping to ~1/14 of the weekly peak (a 14x fluctuation).
#include "bench_helpers.h"

int main(int argc, char** argv) {
  using namespace flint;
  core::RunSpec spec("fig2: 8000 clients, 7 days, strict criteria, seed 1007");
  bench::BenchArtifact artifact(spec, argc, argv, "fig2_availability_curve");
  bench::print_header("Figure 2: Normalized device availability over one week",
                      "Hourly available-device counts under strict criteria "
                      "(WiFi + battery>=80% + modern OS), normalized to the weekly peak");

  util::Rng rng(1007);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 8000;
  cfg.days = 7;
  auto log = device::generate_sessions(cfg, catalog, rng);

  auto trace = device::build_availability(log, bench::strict_criteria(), catalog);
  auto hourly = trace.hourly_availability();
  auto normalized = hourly.normalized_to_peak();

  // Print the week as one row per day, 24 hourly values each.
  for (std::size_t day = 0; day * 24 < normalized.size() && day < 7; ++day) {
    std::printf("day %zu: ", day + 1);
    for (std::size_t h = 0; h < 24; ++h) {
      std::size_t bin = day * 24 + h;
      if (bin < normalized.size()) std::printf("%4.2f ", normalized[bin]);
    }
    std::printf("\n");
  }

  double ratio = trace.peak_to_trough_ratio();
  artifact.add_scalar("peak_to_trough_ratio", ratio);
  artifact.add_scalar("hourly_bins", static_cast<double>(normalized.size()));
  std::cout << "\n";
  bench::print_compare("peak-to-trough fluctuation", "~14x",
                       util::Table::num(ratio, 1) + "x");
  std::cout << "\nASCII availability curve (hour-of-week, # = relative height):\n";
  // Compress to 4-hour buckets for readability.
  util::Histogram coarse(0.0, 7.0 * 24.0, 42);
  for (std::size_t i = 0; i < normalized.size() && i < 168; ++i)
    coarse.add(static_cast<double>(i) + 0.5, normalized[i]);
  std::cout << coarse.render(40);
  return 0;
}
