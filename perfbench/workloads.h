// The benchmark's three workloads. Each builds its inputs from the seed,
// runs one FLINT runner per repetition, checks that repetition's outputs,
// and feeds the traced run's per-layer counters. README.md records why each
// workload exists and which end-to-end metric each layer should move.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// How a repetition runs: plain (the end-to-end number), traced (spans and
/// per-layer counters on), or with the program's own telemetry installed.
enum class RepMode { kPlain, kTraced, kTelemetry };

const char* mode_name(RepMode mode);

/// Named per-layer values (counts, bytes, seconds).
using Counters = std::map<std::string, double>;

/// One timed repetition of a workload's run.
struct RepResult {
  RepMode mode = RepMode::kPlain;
  /// Why the repetition failed (threw or failed a check); empty when it passed.
  std::string error;
  std::uint64_t updates = 0;
  std::uint64_t rounds = 0;
  std::uint64_t tasks = 0;
  std::uint64_t events = 0;
  double final_metric = 0.0;
  std::uint64_t param_hash = 0;
  double run_s = 0.0;     ///< wall time of the runner call
  double setup_s = -1.0;  ///< set-up this repetition paid itself (streamed inputs only)
  int run_span = -1;      ///< the fl.run span (traced repetitions)
  std::vector<double> round_ms;  ///< wall time per round (traced repetitions)
  Counters counters;             ///< per-repetition layer counters
};

struct WorkloadContext {
  std::uint64_t seed = 1;
  SpanRecorder* recorder = nullptr;
  std::string executor_bin;  ///< flint_executor, for the fleet workload
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// How many times the driver builds the shared inputs; the median build
  /// time is setup_s. 1 where each repetition builds its own inputs.
  virtual int setup_rounds() const { return 5; }
  /// Build the inputs the repetitions share.
  virtual void setup() = 0;
  /// Drop what setup() built, before the next setup() (not timed).
  virtual void reset() {}
  /// Updates one repetition is configured to aggregate: what a failed
  /// repetition counts as failed.
  virtual std::uint64_t planned_updates() const = 0;
  /// One repetition; sets RepResult::error when a check fails.
  virtual RepResult run(RepMode mode) = 0;
  /// Checks that need more than one repetition's outputs, made after the
  /// timed section; returns the failure, or empty.
  virtual std::string verify(const RepResult& reference) {
    (void)reference;
    return {};
  }
  /// Short probes of public entry points on the run's own inputs (traced
  /// runs only).
  virtual void probe() {}
  /// Whether the driver rotates the process over the CPUs (cpus.h) during
  /// set-up and the repetitions.
  virtual bool rotate_cpus() const { return true; }
  /// Peak resident memory of helper processes in MiB, read while they live.
  virtual double helper_peak_rss_mib() { return 0.0; }

  /// Counters from set-up and probes.
  const Counters& counters() const { return counters_; }

 protected:
  Counters counters_;
};

/// "fedbuff_train", "population_stream" or "fedavg_fleet"; null otherwise.
std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadContext& context);

/// VmHWM from a /proc status file ("/proc/self/status", "/proc/<pid>/status")
/// in MiB; 0 where it cannot be read.
double peak_rss_mib(const std::string& status_path);

}  // namespace perfbench
