// perfbench_driver: runs one workload of FLINT's benchmark in this process
// and prints its metrics. run.py builds it, gives it a scratch working
// directory and supervises it (README.md describes the whole benchmark).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--executor PATH] [--spans-out PATH]
//
// Set-up runs first, then repetitions of the workload's run until --seconds
// have passed. With --trace 0 every repetition is plain and the result holds
// the end-to-end metrics. With --trace 1 the repetitions cycle through
// traced, plain and program-telemetry modes; the result holds the per-layer
// metrics of the traced ones, and --spans-out receives their spans.
//
// Output: one line per repetition, a provenance line, and last one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status 0 when
// every output check passed, 1 when one failed, 2 on bad usage or when the
// workload could not be set up.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flint/ml/kernels/kernels.h"
#include "flint/util/stats.h"
#include "cpus.h"
#include "span_math.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string executor;
  std::string spans_out;
};

bool parse_options(int argc, char** argv, Options& opt) {
  bool seen_seed = false;
  bool seen_seconds = false;
  bool seen_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, &end, 10);
      seen_seed = *value != '\0' && *end == '\0';
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::strtod(value, &end);
      seen_seconds = *end == '\0' && opt.seconds > 0.0 && opt.seconds <= 120.0;
    } else if (std::strcmp(flag, "--trace") == 0) {
      seen_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opt.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--executor") == 0) {
      opt.executor = value;
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      opt.spans_out = value;
    } else {
      return false;
    }
  }
  return !opt.workload.empty() && seen_seed && seen_seconds && seen_trace;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Build facts that decide whether two results may be compared.
struct Provenance {
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string compiler = PERFBENCH_COMPILER;
  std::string kernel_path;
  std::string kernel_spec;
  long nproc = 0;
  bool sanitized = false;

  bool comparable() const {
    return !sanitized && (build_type == "Release" || build_type == "RelWithDebInfo");
  }

  std::string json(std::uint64_t seed) const {
    std::ostringstream o;
    o << "{\"build_type\":\"" << build_type << "\",\"compiler\":\"" << compiler
      << "\",\"kernel_path\":\"" << kernel_path << "\",\"kernel_spec\":\"" << kernel_spec
      << "\",\"nproc\":" << nproc << ",\"seed\":" << seed
      << ",\"sanitized\":" << (sanitized ? "true" : "false")
      << ",\"comparable\":" << (comparable() ? "true" : "false") << "}";
    return o.str();
  }
};

Provenance provenance() {
  Provenance p;
  p.kernel_path = flint::ml::kernels::path_name(flint::ml::kernels::active_path());
  p.kernel_spec = flint::ml::kernels::requested_spec();
  p.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  p.sanitized = std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  p.sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer) || __has_feature(memory_sanitizer)
  p.sanitized = true;
#endif
#endif
  return p;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median_over(const std::vector<const RepResult*>& reps,
                   const std::function<double(const RepResult&)>& value) {
  std::vector<double> values;
  for (const RepResult* r : reps) values.push_back(value(*r));
  return values.empty() ? 0.0 : flint::util::median(std::move(values));
}

double updates_per_s(const RepResult& r) { return r.run_s > 0.0 ? r.updates / r.run_s : 0.0; }

double counter(const RepResult& r, const char* name) {
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median duration in seconds of the spans named `name`.
double span_median_s(const SpanRecorder& rec, const char* name) {
  std::vector<double> d;
  for (const Span* s : rec.named(name)) d.push_back(s->end - s->start);
  return d.empty() ? 0.0 : flint::util::median(std::move(d));
}

/// p50 and tail of `samples`, appended as <prefix>_p50, <prefix>_tail,
/// <prefix>_tail_pct and the sample count under `count_name`.
void add_distribution(std::vector<Metric>& out, const std::string& prefix,
                      const std::string& count_name, std::vector<double> samples) {
  auto tail = tail_percentile(samples);
  out.push_back({prefix + "_p50", samples.empty() ? 0.0 : flint::util::median(samples), "ms"});
  out.push_back({prefix + "_tail", tail ? tail->value : 0.0, "ms"});
  out.push_back({prefix + "_tail_pct", tail ? tail->percentile : 0.0, "pct"});
  out.push_back({count_name, static_cast<double>(samples.size()), "count"});
}

/// Share of the traced wall time (the bench.* root spans) that no layer span
/// directly under a root covers: bookkeeping the per-layer numbers miss.
double unattributed_frac(const SpanRecorder& rec) {
  double wall = 0.0;
  double self = 0.0;
  for (const Span& s : rec.spans()) {
    if (s.parent != -1 || s.track != 0 || s.end < s.start) continue;
    if (std::strncmp(s.name, "bench.", 6) != 0) continue;
    wall += s.end - s.start;
    self += self_time(s.interval(), rec.children_of(s.id));
  }
  return ratio(self, wall);
}

std::vector<Metric> per_layer_metrics(const SpanRecorder& rec, const Workload& workload,
                                      const std::vector<RepResult>& reps, double failed_frac,
                                      double wire_per_update) {
  std::vector<const RepResult*> traced;
  std::vector<const RepResult*> plain;
  std::vector<const RepResult*> telemetry;
  for (const RepResult& r : reps) {
    if (!r.error.empty()) continue;
    if (r.mode == RepMode::kTraced) traced.push_back(&r);
    if (r.mode == RepMode::kPlain) plain.push_back(&r);
    if (r.mode == RepMode::kTelemetry) telemetry.push_back(&r);
  }
  auto run_span = [&](const RepResult& r) { return rec.spans()[static_cast<std::size_t>(r.run_span)]; };
  auto self_s = [&](const RepResult& r) {
    return self_time(run_span(r).interval(), rec.children_of(r.run_span));
  };
  auto within_run = [&](const char* name) {
    return [&rec, name](const RepResult& r) { return rec.total(name, r.run_span); };
  };
  auto med = [&](const std::function<double(const RepResult&)>& f) { return median_over(traced, f); };
  auto setup_counter = [&](const char* name) {
    auto it = workload.counters().find(name);
    if (it != workload.counters().end()) return it->second;
    return med([name](const RepResult& r) { return counter(r, name); });
  };

  std::vector<Metric> m;
  m.push_back({"device.trace_gen_s", span_median_s(rec, "device.trace_gen"), "s"});
  m.push_back({"device.sessions", setup_counter("device.sessions"), "count"});
  m.push_back({"device.spill_bytes", setup_counter("device.spill_bytes"), "bytes"});
  m.push_back({"device.window_next_s", med(within_run("device.window_next")), "s"});
  m.push_back({"device.windows",
               med([&](const RepResult& r) {
                 return static_cast<double>(rec.count("device.window_next", r.run_span));
               }),
               "count"});
  m.push_back({"device.availability_s", span_median_s(rec, "device.availability"), "s"});
  m.push_back({"data.task_gen_s", span_median_s(rec, "data.task_gen"), "s"});
  m.push_back({"data.train_examples", setup_counter("data.train_examples"), "count"});

  m.push_back({"sim.events", med([](const RepResult& r) { return double(r.events); }), "count"});
  m.push_back({"sim.tasks_started", med([](const RepResult& r) { return double(r.tasks); }), "count"});
  m.push_back({"sim.events_per_s_self",
               med([&](const RepResult& r) { return ratio(double(r.events), self_s(r)); }), "1/s"});

  m.push_back({"fl.run_s", med([](const RepResult& r) { return r.run_s; }), "s"});
  m.push_back({"fl.self_s", med(self_s), "s"});
  m.push_back({"fl.rounds", med([](const RepResult& r) { return double(r.rounds); }), "count"});
  std::vector<double> round_ms;
  for (const RepResult* r : traced) round_ms.insert(round_ms.end(), r->round_ms.begin(), r->round_ms.end());
  add_distribution(m, "fl.round_ms", "fl.round_samples", std::move(round_ms));

  for (auto [name, unit] : {std::pair{"ml.train_us_per_example", "us"}, {"ml.eval_ms", "ms"},
                            {"store.checkpoints", "count"}, {"store.checkpoint_bytes", "bytes"},
                            {"store.save_ms", "ms"}, {"store.load_ms", "ms"}})
    m.push_back({name, setup_counter(name), unit});

  double leases = med([](const RepResult& r) { return counter(r, "rpc.leases"); });
  m.push_back({"rpc.leases", leases, "count"});
  m.push_back({"rpc.bytes_down_per_lease",
               med([](const RepResult& r) { return ratio(counter(r, "rpc.lease_bytes"), counter(r, "rpc.leases")); }),
               "bytes"});
  m.push_back({"rpc.bytes_up_per_lease",
               med([](const RepResult& r) { return ratio(counter(r, "rpc.result_bytes"), counter(r, "rpc.results")); }),
               "bytes"});
  m.push_back({"rpc.heartbeats", med([](const RepResult& r) { return counter(r, "rpc.heartbeats"); }), "count"});
  m.push_back({"rpc.send_s", med(within_run("rpc.send")), "s"});
  m.push_back({"rpc.recv_wait_s", med(within_run("rpc.recv")), "s"});
  m.push_back({"rpc.idle_frac",
               med([&](const RepResult& r) { return ratio(rec.total("rpc.recv", r.run_span), r.run_s); }),
               "fraction"});
  std::vector<double> rtt_ms;
  for (const Span* s : rec.named("rpc.lease")) rtt_ms.push_back((s->end - s->start) * 1e3);
  add_distribution(m, "rpc.lease_rtt_ms", "rpc.lease_samples", std::move(rtt_ms));
  m.push_back({"rpc.fleet_setup_s", span_median_s(rec, "rpc.fleet_setup"), "s"});

  double plain_ups = median_over(plain, updates_per_s);
  double traced_ups = median_over(traced, updates_per_s);
  double telemetry_ups = median_over(telemetry, updates_per_s);
  m.push_back({"obs.telemetry_slowdown", ratio(plain_ups, telemetry_ups), "ratio"});
  m.push_back({"bench.trace_overhead_frac", plain_ups > 0.0 ? 1.0 - traced_ups / plain_ups : 0.0,
               "fraction"});
  m.push_back({"bench.unattributed_frac", unattributed_frac(rec), "fraction"});
  m.push_back({"wire_bytes_per_update", wire_per_update, "bytes"});
  m.push_back({"ops_failed_frac", failed_frac, "fraction"});
  return m;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
      << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}";
  return o.str();
}

/// Two repetitions of one seed must produce the same outputs.
bool same_outputs(const RepResult& a, const RepResult& b) {
  return a.updates == b.updates && a.rounds == b.rounds && a.tasks == b.tasks &&
         a.events == b.events && a.param_hash == b.param_hash &&
         std::memcmp(&a.final_metric, &b.final_metric, sizeof(double)) == 0 &&
         counter(a, "rpc.lease_bytes") == counter(b, "rpc.lease_bytes") &&
         counter(a, "rpc.result_bytes") == counter(b, "rpc.result_bytes");
}

int run(const Options& opt) {
  const Provenance prov = provenance();
  SpanRecorder rec(opt.trace);
  auto workload = make_workload(opt.workload, {opt.seed, &rec, opt.executor});
  if (workload == nullptr) {
    std::cerr << "perfbench_driver: unknown workload '" << opt.workload << "'\n";
    return 2;
  }

  std::optional<CpuRotation> rotation;
  if (workload->rotate_cpus()) rotation.emplace();
  std::vector<double> setup_s;
  for (int k = 0; k < workload->setup_rounds(); ++k) {
    if (k > 0) {
      ScopedSpan root(rec, "bench.reset");
      workload->reset();
    }
    ScopedSpan root(rec, "bench.setup");
    auto start = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(start));
  }

  // Repetitions until the deadline; a traced run visits every mode once.
  std::vector<RepMode> cycle = {RepMode::kPlain};
  if (opt.trace) cycle = {RepMode::kTraced, RepMode::kPlain, RepMode::kTelemetry};
  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  std::vector<RepResult> reps;
  while (reps.size() < cycle.size() || Clock::now() < deadline) {
    RepMode mode = cycle[reps.size() % cycle.size()];
    rec.set_enabled(mode == RepMode::kTraced);
    RepResult rep;
    {
      ScopedSpan root(rec, "bench.rep");
      try {
        rep = workload->run(mode);
      } catch (const std::exception& e) {
        rep = RepResult{};
        rep.mode = mode;
        rep.error = std::string("threw: ") + e.what();
      }
    }
    rec.set_enabled(opt.trace);
    std::printf("rep %zu %-9s %llu updates in %.3f s = %.1f updates/s%s%s\n", reps.size() + 1,
                mode_name(mode), static_cast<unsigned long long>(rep.updates), rep.run_s,
                updates_per_s(rep), rep.error.empty() ? "" : "  FAILED: ", rep.error.c_str());
    reps.push_back(std::move(rep));
  }
  rotation.reset();

  // Output checks beyond each repetition's own.
  const RepResult* reference = nullptr;
  for (RepResult& r : reps) {
    if (!r.error.empty()) continue;
    if (reference == nullptr) {
      reference = &r;
    } else if (!same_outputs(r, *reference)) {
      r.error = "outputs differ from an earlier repetition of the same seed";
    }
  }
  std::string verify_error = reference == nullptr ? "no repetition passed its checks" : "";
  if (reference != nullptr) {
    ScopedSpan root(rec, "bench.verify");
    try {
      verify_error = workload->verify(*reference);
    } catch (const std::exception& e) {
      verify_error = std::string("threw: ") + e.what();
    }
  }
  if (opt.trace && reference != nullptr) {
    ScopedSpan root(rec, "bench.probe");
    try {
      workload->probe();
    } catch (const std::exception& e) {
      verify_error += std::string("probe threw: ") + e.what();
    }
  }
  if (!verify_error.empty()) std::printf("check FAILED: %s\n", verify_error.c_str());

  const double planned = static_cast<double>(workload->planned_updates());
  double attempted = 0.0;
  double failed = 0.0;
  for (const RepResult& r : reps) {
    attempted += r.error.empty() ? static_cast<double>(r.updates) : planned;
    failed += r.error.empty() ? 0.0 : planned;
  }
  if (!verify_error.empty()) failed = attempted;
  const bool correct = failed == 0.0;
  const double failed_frac = ratio(failed, attempted);
  double wire_per_update = 0.0;
  if (reference != nullptr) {
    wire_per_update = ratio(counter(*reference, "rpc.lease_bytes") +
                                counter(*reference, "rpc.result_bytes"),
                            static_cast<double>(reference->updates));
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    std::vector<const RepResult*> ok;
    std::vector<double> rep_setup;
    for (const RepResult& r : reps) {
      if (r.error.empty()) ok.push_back(&r);
      if (r.setup_s >= 0.0) rep_setup.push_back(r.setup_s);
    }
    double setup = flint::util::median(rep_setup.empty() ? setup_s : rep_setup);
    double rss = peak_rss_mib("/proc/self/status") + workload->helper_peak_rss_mib();
    metrics = {{"updates_per_s", median_over(ok, updates_per_s), "1/s"},
               {"setup_s", setup, "s"},
               {"peak_rss_mib", rss, "MiB"}};
    std::printf("end to end: updates_per_s %.2f  setup_s %.4f  peak_rss_mib %.1f  "
                "wire_bytes_per_update %.1f  ops_failed_frac %.4f\n",
                metrics[0].value, metrics[1].value, metrics[2].value, wire_per_update, failed_frac);
  } else {
    metrics = per_layer_metrics(rec, *workload, reps, failed_frac, wire_per_update);
    if (!opt.spans_out.empty()) {
      rec.write_chrome_trace(opt.spans_out, "{\"workload\":\"" + opt.workload +
                                                "\",\"provenance\":" + prov.json(opt.seed) +
                                                ",\"per_layer\":" + metrics_json(metrics) + "}");
      std::printf("spans: %s\n", opt.spans_out.c_str());
    }
  }
  workload.reset();  // shuts the fleet down before the result is printed

  if (!prov.comparable())
    std::printf("warning: %s build%s, results are not comparable\n", prov.build_type.c_str(),
                prov.sanitized ? " with sanitizers" : "");
  std::printf("provenance %s\n", prov.json(opt.seed).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_options(argc, argv, opt)) {
    std::cerr << "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1"
                 " [--executor PATH] [--spans-out PATH]\n";
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
