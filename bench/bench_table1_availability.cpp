// Table 1 reproduction: mobile device availability after applying each
// participation criterion, and their intersection.
//
// Paper:  A (WiFi) 70% | B (battery >= 80%) 34% | C (OS >= Sept 2019) 93%
//         A ∩ B ∩ C = 22%
#include "bench_helpers.h"

int main(int argc, char** argv) {
  using namespace flint;
  core::RunSpec spec("table1: 2-week log, 6000 clients, seed 1001");
  bench::BenchArtifact artifact(spec, argc, argv, "table1_availability");
  bench::print_header(
      "Table 1: Device availability under participation criteria",
      "2-week synthetic session log, 6000 clients, duration-weighted fractions");

  util::Rng rng(1001);
  auto catalog = device::DeviceCatalog::standard();
  auto log = bench::two_week_log(catalog, 6000, rng);

  device::AvailabilityCriteria wifi;
  wifi.require_wifi = true;
  device::AvailabilityCriteria battery;
  battery.min_battery_pct = 80.0;
  device::AvailabilityCriteria os;
  os.min_os_release = 201909;
  device::AvailabilityCriteria all;
  all.require_wifi = true;
  all.min_battery_pct = 80.0;
  all.min_os_release = 201909;

  double fa = device::criteria_pass_fraction(log, wifi, catalog);
  double fb = device::criteria_pass_fraction(log, battery, catalog);
  double fc = device::criteria_pass_fraction(log, os, catalog);
  double fall = device::criteria_pass_fraction(log, all, catalog);
  artifact.add_scalar("pass_fraction.wifi", fa);
  artifact.add_scalar("pass_fraction.battery", fb);
  artifact.add_scalar("pass_fraction.os", fc);
  artifact.add_scalar("pass_fraction.all", fall);
  artifact.add_scalar("sessions", static_cast<double>(log.sessions.size()));

  util::Table t({"TRAINING CRITERIA", "DEVICES AVAILABLE (measured)", "PAPER"});
  t.add_row({"A: connected to WiFi", util::Table::pct(fa), "70%"});
  t.add_row({"B: battery level >= 80%", util::Table::pct(fb), "34%"});
  t.add_row({"C: OS release >= Sept. 2019", util::Table::pct(fc), "93%"});
  t.add_row({"A ∩ B ∩ C", util::Table::pct(fall), "22%"});
  std::cout << t.render();

  std::cout << "\nSession log: " << log.sessions.size() << " sessions, total "
            << bench::human_duration(log.total_duration()) << " of foreground time\n";
  return 0;
}
