// Experiment framework façade (paper §3.4): multi-trial runs with
// error-bounded metrics ("our experimental framework runs multiple trials of
// each configuration to report error-bounded metrics").
#pragma once

#include <vector>

#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"

namespace flint::core {

/// Aggregate over N trials of one configuration.
struct TrialSummary {
  std::vector<fl::RunResult> trials;
  double median_metric = 0.0;
  double mean_metric = 0.0;
  double stdev_metric = 0.0;
  double median_duration_s = 0.0;
  double mean_client_compute_s = 0.0;
  double mean_tasks_started = 0.0;

  const fl::RunResult& trial(std::size_t i) const { return trials[i]; }
};

/// Run `n` FedBuff trials; trial i uses seed base.inputs.seed + i.
TrialSummary run_trials_fedbuff(const fl::AsyncConfig& base, int n);

/// Summarize pre-computed results (exposed for custom sweeps).
TrialSummary summarize_trials(std::vector<fl::RunResult> trials);

}  // namespace flint::core
