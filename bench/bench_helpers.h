// Shared builders for the table/figure reproduction benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "flint/core/platform.h"
#include "flint/core/run_artifact.h"
#include "flint/core/run_spec.h"
#include "flint/data/proxy_generator.h"
#include "flint/device/availability.h"
#include "flint/device/session_generator.h"
#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"
#include "flint/obs/telemetry.h"
#include "flint/util/table.h"

namespace flint::bench {

/// Opt-in profiling for a bench binary: `--trace-out t.json` and/or
/// `--metrics-out m.jsonl` build a Telemetry, install it as the ambient obs
/// context for the bench's lifetime, and export the files on destruction.
/// Without either flag nothing is installed, so the instrumented hot paths
/// keep their disabled cost (one relaxed load + branch per site) and bench
/// timings stay comparable.
class BenchTelemetry {
 public:
  explicit BenchTelemetry(const core::RunSpec& spec) {
    if (!spec.telemetry.enabled()) return;
    telemetry_.emplace(spec.telemetry);
    scope_.emplace(&*telemetry_);
  }

  ~BenchTelemetry() {
    if (!telemetry_.has_value()) return;
    scope_.reset();  // uninstall before export so no more samples land
    telemetry_->snapshot_now();
    telemetry_->export_all();
    std::cout << "\nTelemetry: " << telemetry_->metrics().series_count() << " metric series, "
              << telemetry_->tracer().event_count() << " trace spans exported\n";
  }

  BenchTelemetry(const BenchTelemetry&) = delete;
  BenchTelemetry& operator=(const BenchTelemetry&) = delete;

 private:
  std::optional<obs::Telemetry> telemetry_;
  std::optional<obs::ScopedTelemetry> scope_;
};

/// Every bench binary's regression interface and command line: declare one
/// of these at the top of main, after the spec's own flags. It adds
/// `--artifact-out path` (default `BENCH_<name>.json`) and `--kernels`,
/// parses argv (usage and exit 2 on a bad flag), and writes a
/// schema-versioned core::RunArtifact JSON on exit, fingerprinting the
/// spec's config_text. Benches feed it their headline numbers via
/// add_scalar(), and FL-running benches hand over a representative RunResult
/// via set_run() so model/system/ledger sections are populated too.
/// tools/flint_compare.py diffs two such artifacts; the CI smoke-bench job
/// compares against checked-in baselines. (flint_lint enforces that every
/// bench_*.cpp declares one.)
class BenchArtifact {
 public:
  BenchArtifact(core::RunSpec& spec, int argc, char** argv, std::string name) {
    inputs_.name = std::move(name);
    spec.with_artifact("BENCH_" + inputs_.name + ".json").with_kernels();
    spec.parse_or_exit(argc, argv);
    path_ = spec.artifact_out;
    inputs_.config_text = spec.config_text();
    start_ = std::chrono::steady_clock::now();
  }

  ~BenchArtifact() {
    inputs_.run = &run_;
    if (forecast_.has_value()) inputs_.forecast = &*forecast_;
    inputs_.wall_time_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    try {
      core::write_run_artifact(path_, inputs_);
      std::cout << "\nRun artifact: " << path_ << "\n";
    } catch (const std::exception& e) {
      // A destructor must not throw; an unwritable artifact is a reporting
      // failure, not a bench failure.
      std::cerr << "\nRun artifact write failed: " << e.what() << "\n";
    }
  }

  BenchArtifact(const BenchArtifact&) = delete;
  BenchArtifact& operator=(const BenchArtifact&) = delete;

  /// Record the bench's representative run (copied; call once, last wins).
  void set_run(const fl::RunResult& run, const std::string& metric_name) {
    run_ = run;
    inputs_.metric_name = metric_name;
  }
  void set_forecast(const core::ResourceForecast& forecast) { forecast_ = forecast; }
  /// One named headline number (fill time, pass fraction, speedup, ...).
  void add_scalar(const std::string& name, double value) {
    inputs_.scalars.emplace_back(name, value);
  }

 private:
  core::RunArtifactInputs inputs_;
  fl::RunResult run_;  ///< default (all-zero) when the bench never runs FL
  std::optional<core::ResourceForecast> forecast_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
};

/// The paper's strict participation criteria (§4.1): foreground app,
/// battery > 80%, WiFi, and a modern OS.
inline device::AvailabilityCriteria strict_criteria() {
  device::AvailabilityCriteria c;
  c.require_wifi = true;
  c.min_battery_pct = 80.0;
  c.require_foreground = true;
  c.min_os_release = 201909;
  return c;
}

/// Two-week synthetic session log sized for bench runtimes.
inline device::SessionLog two_week_log(const device::DeviceCatalog& catalog, std::size_t clients,
                                       util::Rng& rng) {
  device::SessionGeneratorConfig cfg;
  cfg.clients = clients;
  cfg.days = 14;
  return device::generate_sessions(cfg, catalog, rng);
}

/// Print a section header followed by the reproduction context line.
inline void print_header(const std::string& title, const std::string& context) {
  std::cout << "\n" << util::banner(title);
  if (!context.empty()) std::cout << context << "\n\n";
}

/// "paper X vs measured Y" comparison line.
inline void print_compare(const std::string& what, const std::string& paper,
                          const std::string& measured) {
  std::cout << "  " << what << ": paper=" << paper << "  measured=" << measured << "\n";
}

/// Format seconds as a human-scale duration (the paper mixes hrs and days).
inline std::string human_duration(double seconds) {
  char buf[64];
  if (seconds < 3600.0) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  } else if (seconds < 86400.0) {
    std::snprintf(buf, sizeof(buf), "%.2f hrs", seconds / 3600.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f days", seconds / 86400.0);
  }
  return buf;
}

}  // namespace flint::bench
