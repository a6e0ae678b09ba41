// Figure 1 reproduction: distribution of iOS-based vs Android-based device
// models in the user base. The figure's point: Android hardware is much more
// diverse than iOS hardware, making compute capability hard to estimate.
#include "bench_helpers.h"

#include "flint/device/hardware_distribution.h"

namespace {

void print_distribution(const flint::device::HardwareDistribution& dist,
                        std::size_t legend_size) {
  using flint::util::Table;
  Table t({"DEVICE MODEL", "SHARE"});
  for (std::size_t i = 0; i < std::min(legend_size, dist.shares.size()); ++i)
    t.add_row({dist.shares[i].name, Table::pct(dist.shares[i].share)});
  t.add_row({"(other devices — gray region)", Table::pct(dist.other_share(legend_size))});
  std::cout << t.render();
  std::cout << "  entropy=" << Table::num(dist.entropy_bits, 2)
            << " bits, top-3 coverage=" << Table::pct(dist.top3_share) << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flint;
  core::RunSpec spec("fig1: 200k users per OS, standard catalog, seed 1006");
  bench::BenchArtifact artifact(spec, argc, argv, "fig1_hardware_dist");
  bench::print_header("Figure 1: Hardware distribution of the user base (iOS vs Android)",
                      "Sampled from 200k synthetic users per OS; legend shows top models");

  util::Rng rng(1006);
  auto catalog = device::DeviceCatalog::standard();

  std::cout << "-- iOS --\n";
  auto ios = device::sampled_hardware_distribution(catalog, device::Os::kIos, 200'000, rng);
  print_distribution(ios, 6);

  std::cout << "-- Android --\n";
  auto android =
      device::sampled_hardware_distribution(catalog, device::Os::kAndroid, 200'000, rng);
  print_distribution(android, 6);

  artifact.add_scalar("entropy_bits.ios", ios.entropy_bits);
  artifact.add_scalar("entropy_bits.android", android.entropy_bits);
  artifact.add_scalar("top3_share.ios", ios.top3_share);
  artifact.add_scalar("top3_share.android", android.top3_share);
  bench::print_compare("diversity ordering", "Android >> iOS (Figure 1)",
                       std::string("Android ") + util::Table::num(android.entropy_bits, 2) +
                           " bits vs iOS " + util::Table::num(ios.entropy_bits, 2) + " bits");
  return 0;
}
