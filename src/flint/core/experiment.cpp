#include "flint/core/experiment.h"

#include "flint/util/check.h"
#include "flint/util/stats.h"

namespace flint::core {

TrialSummary summarize_trials(std::vector<fl::RunResult> trials) {
  FLINT_CHECK(!trials.empty());
  TrialSummary s;
  std::vector<double> metrics, durations;
  util::RunningStats metric_stats, compute, started;
  for (const auto& t : trials) {
    metrics.push_back(t.final_metric);
    durations.push_back(t.virtual_duration_s);
    metric_stats.add(t.final_metric);
    compute.add(t.metrics.client_compute_s());
    started.add(static_cast<double>(t.metrics.tasks_started()));
  }
  s.median_metric = util::median(metrics);
  s.mean_metric = metric_stats.mean();
  s.stdev_metric = metric_stats.stddev();
  s.median_duration_s = util::median(durations);
  s.mean_client_compute_s = compute.mean();
  s.mean_tasks_started = started.mean();
  s.trials = std::move(trials);
  return s;
}

TrialSummary run_trials_fedbuff(const fl::AsyncConfig& base, int n) {
  FLINT_CHECK(n >= 1);
  std::vector<fl::RunResult> trials;
  trials.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    fl::AsyncConfig cfg = base;
    cfg.inputs.seed = base.inputs.seed + static_cast<std::uint64_t>(i);
    trials.push_back(fl::run_fedbuff(cfg));
  }
  return summarize_trials(std::move(trials));
}

}  // namespace flint::core
