// Figure 4 reproduction: two business-critical models' on-device training
// times and max CPU usage over 5000 examples across the 27-device fleet.
// The figure's points: (1) magnitudes of difference in training time between
// the two tasks; (2) devices optimized for one task can be worse for another.
#include "bench_helpers.h"

#include <algorithm>

#include "flint/device/benchmark_harness.h"

int main(int argc, char** argv) {
  using namespace flint;
  core::RunSpec spec("fig4: zoo models C and B, 27-device fleet, 5000 records, seed 1008");
  bench::BenchArtifact artifact(spec, argc, argv, "fig4_device_benchmarks");
  bench::print_header("Figure 4: Per-device training time and CPU for two FL tasks",
                      "Task A := zoo Model C (fast embedding MLP); Task B := zoo "
                      "Model B (sparse-feature MLP); 5000 records per device");

  util::Rng rng(1008);
  auto catalog = device::DeviceCatalog::standard();
  auto fast = device::simulate_fleet_benchmark(ml::model_spec('C'), catalog, 5000, rng);
  auto slow = device::simulate_fleet_benchmark(ml::model_spec('B'), catalog, 5000, rng);

  util::Table t({"DEVICE", "OS", "TASK A TIME (s)", "TASK A CPU%", "TASK B TIME (s)",
                 "TASK B CPU%"});
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    t.add_row({fast.per_device[i].device_name, device::os_name(fast.per_device[i].os),
               util::Table::num(fast.per_device[i].train_time_s, 2),
               util::Table::num(fast.per_device[i].cpu_pct, 2),
               util::Table::num(slow.per_device[i].train_time_s, 2),
               util::Table::num(slow.per_device[i].cpu_pct, 2)});
  }
  std::cout << t.render();

  artifact.add_scalar("mean_time_s.task_a", fast.mean_time_s);
  artifact.add_scalar("mean_time_s.task_b", slow.mean_time_s);
  artifact.add_scalar("time_ratio", slow.mean_time_s / fast.mean_time_s);
  bench::print_compare("task time magnitudes", "Task B ~19x Task A (61.81s vs 3.26s)",
                       util::Table::num(slow.mean_time_s / fast.mean_time_s, 1) +
                           "x (" + util::Table::num(slow.mean_time_s, 2) + "s vs " +
                           util::Table::num(fast.mean_time_s, 2) + "s)");

  // Count rank inversions between the two tasks' device orderings.
  auto rank_of = [&](const device::FleetBenchmarkReport& r) {
    std::vector<std::size_t> order(r.per_device.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return r.per_device[a].train_time_s < r.per_device[b].train_time_s;
    });
    std::vector<std::size_t> rank(order.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos) rank[order[pos]] = pos;
    return rank;
  };
  auto ra = rank_of(fast);
  auto rb = rank_of(slow);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < ra.size(); ++i)
    if (ra[i] != rb[i]) ++moved;
  artifact.add_scalar("rank_moved_devices", static_cast<double>(moved));
  bench::print_compare("devices whose speed rank differs between tasks",
                       "\"devices optimized for one task might be worse for another\"",
                       util::Table::num(static_cast<double>(moved)) + " of 27");
  return 0;
}
