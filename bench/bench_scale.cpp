// Million-client capacity bench (DESIGN.md §17): model-free FedBuff over a
// streamed session trace, reporting simulated throughput (updates/s, events/s)
// and peak resident memory. The headline claim it guards: with
// `--mode stream`, peak RSS is bounded by the active-client working set —
// chunk spill buffers, merge read-back, and pooled per-client state — not by
// the population size. To make that measurable inside one process, the bench
// first runs a small preset (clients/8) and then the full population, and
// reports the peak-RSS growth ratio between them; a ratio near 1 means the
// extra 7/8ths of the population never became resident.
//
//   bench_scale                       # 1,000,000 clients, streaming
//   bench_scale --clients 100000      # CI-sized run (the checked-in baseline)
//   bench_scale --mode materialized   # the O(population) contrast
#include <fstream>
#include <sstream>

#include "bench_helpers.h"
#include "flint/device/session_stream.h"

namespace {

using namespace flint;

struct ScaleOptions {
  std::size_t clients = 1'000'000;
  std::uint32_t days = 2;
  double sessions_per_day = 1.5;
  std::string mode = "stream";  // stream | materialized
  std::size_t chunk_clients = 16'384;
  std::string spill_dir;
  std::uint64_t seed = 17;
};

/// Peak resident set (VmHWM) in MiB from /proc/self/status; 0 where the
/// proc filesystem is unavailable (non-linux), which also zeroes the
/// derived rss.* scalars so compare treats them as absent-but-equal.
double peak_rss_mib() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
#endif
  return 0.0;
}

/// Counts windows the scheduler actually pulled — the event-stream length.
class CountingWindowStream : public device::WindowStream {
 public:
  explicit CountingWindowStream(device::WindowStream& inner) : inner_(&inner) {}

  std::optional<device::AvailabilityWindow> next() override {
    auto w = inner_->next();
    if (w.has_value()) ++count_;
    return w;
  }

  std::uint64_t count() const { return count_; }

 private:
  device::WindowStream* inner_;
  std::uint64_t count_ = 0;
};

struct ScaleRun {
  fl::RunResult result;
  std::uint64_t windows_streamed = 0;
  double wall_s = 0.0;
};

/// One model-free FedBuff run over `clients` — the workload both presets and
/// both modes share, so every number the artifact reports is comparable.
ScaleRun run_population(const ScaleOptions& opt, std::size_t clients, std::size_t threads,
                        const device::DeviceCatalog& catalog,
                        const net::BandwidthModel& bandwidth) {
  device::SessionStreamConfig stream_cfg;
  stream_cfg.generator.clients = clients;
  stream_cfg.generator.days = static_cast<int>(opt.days);
  stream_cfg.generator.sessions_per_day = opt.sessions_per_day;
  stream_cfg.clients_per_chunk = opt.chunk_clients;
  stream_cfg.spill_dir = opt.spill_dir;

  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  criteria.min_session_s = 60.0;

  fl::AsyncConfig cfg;
  cfg.inputs.threads = threads;
  cfg.inputs.model_free = true;
  // |D_k| as a pure function of client id: nothing per-client materializes.
  cfg.inputs.example_count_fn = [](std::uint64_t c) { return std::size_t{50} + c % 100; };
  cfg.inputs.catalog = &catalog;
  cfg.inputs.bandwidth = &bandwidth;
  cfg.inputs.duration.base_time_per_example_s = 0.02;
  cfg.inputs.duration.update_bytes = 1'000'000;
  cfg.inputs.reparticipation_gap_s = 6.0 * 3600.0;
  cfg.inputs.max_rounds = 200;
  cfg.inputs.seed = opt.seed;
  cfg.buffer_size = 64;
  cfg.max_concurrency = 256;
  cfg.max_staleness = 100;

  auto wall_start = std::chrono::steady_clock::now();
  ScaleRun out;
  util::Rng rng(opt.seed);
  if (opt.mode == "stream") {
    auto sessions = device::make_session_stream(stream_cfg, catalog, rng);
    device::SessionWindowStream windows(*sessions, criteria, catalog);
    CountingWindowStream counted(windows);
    cfg.inputs.window_stream = &counted;
    out.result = fl::run_fedbuff(cfg);
    out.windows_streamed = counted.count();
  } else {
    auto log = device::generate_sessions(stream_cfg.generator, catalog, rng);
    auto trace = device::build_availability(log, criteria, catalog);
    device::TraceWindowStream windows(trace);
    CountingWindowStream counted(windows);
    cfg.inputs.window_stream = &counted;
    out.result = fl::run_fedbuff(cfg);
    out.windows_streamed = counted.count();
  }
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flint;
  // --mode, --chunk-clients and --spill-dir trade memory and wall time only:
  // results are bit-identical across them (the scale_smoke gate).
  ScaleOptions opt;
  core::RunSpec spec(
      "scale: model-free fedbuff, buffer 64, concurrency 256, require_wifi, min_session_s 60");
  spec.flag("clients", core::FlagKind::kResult, &opt.clients, 1)
      .flag("days", core::FlagKind::kResult, &opt.days, 1, std::numeric_limits<int>::max())
      .flag("sessions-per-day", core::FlagKind::kResult, &opt.sessions_per_day, 0.0,
            std::numeric_limits<double>::max())
      .flag("seed", core::FlagKind::kResult, &opt.seed, 0)
      .flag("mode", core::FlagKind::kWallTime, &opt.mode, "stream|materialized")
      .flag("chunk-clients", core::FlagKind::kWallTime, &opt.chunk_clients, 1)
      .flag("spill-dir", core::FlagKind::kWallTime, &opt.spill_dir, "DIR")
      .with_threads()
      .with_telemetry(false);
  bench::BenchArtifact artifact(spec, argc, argv, "scale");
  bench::BenchTelemetry telemetry(spec);
  const std::size_t threads = spec.threads;
  bench::print_header("Scale-out: population size vs resident memory (DESIGN.md §17)",
                      "Model-free FedBuff, buffer 64, concurrency 256, " + opt.mode +
                          " trace of " + std::to_string(opt.clients) + " clients over " +
                          std::to_string(opt.days) + " days");

  auto catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;

  // Small preset first: VmHWM is a process-lifetime high-water mark, so
  // running small before full makes the two readings a growth measurement.
  std::size_t small_clients = std::max<std::size_t>(1, opt.clients / 8);
  ScaleRun small = run_population(opt, small_clients, threads, catalog, bandwidth);
  double small_peak = peak_rss_mib();
  ScaleRun full = run_population(opt, opt.clients, threads, catalog, bandwidth);
  double full_peak = peak_rss_mib();

  const fl::RunResult& r = full.result;
  double updates_per_s_wall = full.wall_s > 0.0 ? r.metrics.updates_aggregated() / full.wall_s : 0.0;
  double events_per_s_wall = full.wall_s > 0.0 ? r.events_executed / full.wall_s : 0.0;

  util::Table t({"POPULATION", "WINDOWS", "TASKS", "UPDATES", "EVENTS", "WALL (s)", "PEAK RSS (MiB)"});
  t.add_row({util::Table::count(static_cast<std::int64_t>(small_clients)),
             util::Table::count(static_cast<std::int64_t>(small.windows_streamed)),
             util::Table::count(static_cast<std::int64_t>(small.result.metrics.tasks_started())),
             util::Table::count(static_cast<std::int64_t>(small.result.metrics.updates_aggregated())),
             util::Table::count(static_cast<std::int64_t>(small.result.events_executed)),
             util::Table::num(small.wall_s, 1), util::Table::num(small_peak, 1)});
  t.add_row({util::Table::count(static_cast<std::int64_t>(opt.clients)),
             util::Table::count(static_cast<std::int64_t>(full.windows_streamed)),
             util::Table::count(static_cast<std::int64_t>(r.metrics.tasks_started())),
             util::Table::count(static_cast<std::int64_t>(r.metrics.updates_aggregated())),
             util::Table::count(static_cast<std::int64_t>(r.events_executed)),
             util::Table::num(full.wall_s, 1), util::Table::num(full_peak, 1)});
  std::cout << t.render();

  double growth = small_peak > 0.0 ? full_peak / small_peak : 0.0;
  bench::print_compare("peak RSS growth at 8x population", "~1x (stream mode)",
                       util::Table::num(growth, 2) + "x");

  // Deterministic scalars: pure functions of (seed, config), compared at the
  // tight default threshold.
  artifact.add_scalar("clients", static_cast<double>(opt.clients));
  artifact.add_scalar("windows_streamed", static_cast<double>(full.windows_streamed));
  artifact.add_scalar("tasks_dispatched", static_cast<double>(r.metrics.tasks_started()));
  artifact.add_scalar("updates_aggregated", static_cast<double>(r.metrics.updates_aggregated()));
  artifact.add_scalar("events_executed", static_cast<double>(r.events_executed));
  artifact.add_scalar("updates_per_s_virtual", r.updates_per_second());
  // Wall-clock rates (machine-dependent; CI compares with rate.* loosened).
  artifact.add_scalar("rate.updates_per_s_wall", updates_per_s_wall);
  artifact.add_scalar("rate.events_per_s_wall", events_per_s_wall);
  // Memory scalars (machine- and allocator-dependent; CI loosens rss.* too,
  // but growth_ratio is the one that guards the headline claim).
  artifact.add_scalar("rss.small_peak_mib", small_peak);
  artifact.add_scalar("rss.full_peak_mib", full_peak);
  artifact.add_scalar("rss.growth_ratio", growth);
  artifact.set_run(r, "none (model-free)");
  return 0;
}
