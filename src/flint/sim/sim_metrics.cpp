#include "flint/sim/sim_metrics.h"

#include <cmath>

#include "flint/util/check.h"

namespace flint::sim {

void SimMetrics::on_task_finished(const TaskResult& result) {
  // Task-state transition: a task can only finish after being started, and
  // only once (finished counts never exceed started).
  std::uint64_t finished =
      tasks_succeeded_ + tasks_interrupted_ + tasks_stale_ + tasks_failed_;
  FLINT_CHECK_LT(finished, tasks_started_);
  FLINT_CHECK_GE(result.spent_compute_s, 0.0);
  FLINT_CHECK_FINITE(result.spent_compute_s);
  FLINT_CHECK_GE(result.finish_time, result.spec.dispatch_time);
  client_compute_s_ += result.spent_compute_s;
  obs::LedgerOutcome ledger_outcome = obs::LedgerOutcome::kSucceeded;
  switch (result.outcome) {
    case TaskOutcome::kSucceeded:
      ++tasks_succeeded_;
      ++updates_aggregated_;
      ledger_outcome = obs::LedgerOutcome::kSucceeded;
      break;
    case TaskOutcome::kInterrupted:
      ++tasks_interrupted_;
      ledger_outcome = obs::LedgerOutcome::kInterrupted;
      break;
    case TaskOutcome::kStale:
      ++tasks_stale_;
      ledger_outcome = obs::LedgerOutcome::kStale;
      break;
    case TaskOutcome::kFailed:
      ++tasks_failed_;
      ledger_outcome = obs::LedgerOutcome::kFailed;
      break;
  }
  if (ledger_ != nullptr)
    ledger_->on_task_finished(result.spec.client_id, ledger_outcome, result.spent_compute_s,
                              result.spec.update_bytes);
}

void SimMetrics::on_round(const RoundRecord& record) {
  // Rounds are recorded in aggregation order over a monotone virtual clock.
  FLINT_CHECK_GE(record.end, record.start);
  FLINT_CHECK_FINITE(record.mean_staleness);
  FLINT_CHECK_GE(record.mean_staleness, 0.0);
  if (!rounds_.empty()) {
    FLINT_CHECK_GT(record.round, rounds_.back().round);
    FLINT_CHECK_GE(record.start, rounds_.back().start);
  }
  rounds_.push_back(record);
}

double SimMetrics::mean_round_duration_s() const {
  if (rounds_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : rounds_) total += r.duration_s();
  return total / static_cast<double>(rounds_.size());
}

double SimMetrics::updates_per_second(VirtualTime horizon) const {
  // A degenerate horizon (zero-length run, or a caller passing an unset
  // duration) yields a well-defined 0 rather than a throw or a NaN/inf that
  // would poison downstream report arithmetic.
  if (!(horizon > 0.0) || !std::isfinite(horizon)) return 0.0;
  std::uint64_t updates = 0;
  for (const auto& r : rounds_) updates += r.updates_aggregated;
  return static_cast<double>(updates) / horizon;
}

double SimMetrics::waste_fraction() const {
  if (tasks_started_ == 0) return 0.0;
  std::uint64_t wasted = tasks_interrupted_ + tasks_stale_ + tasks_failed_;
  return static_cast<double>(wasted) / static_cast<double>(tasks_started_);
}

store::CheckpointMetrics SimMetrics::snapshot() const {
  store::CheckpointMetrics m;
  m.tasks_started = tasks_started_;
  m.tasks_succeeded = tasks_succeeded_;
  m.tasks_interrupted = tasks_interrupted_;
  m.tasks_stale = tasks_stale_;
  m.tasks_failed = tasks_failed_;
  m.updates_aggregated = updates_aggregated_;
  m.client_compute_s = client_compute_s_;
  m.rounds.reserve(rounds_.size());
  for (const auto& r : rounds_)
    m.rounds.push_back({r.round, r.start, r.end,
                        static_cast<std::uint64_t>(r.updates_aggregated), r.mean_staleness});
  m.checkpoints.reserve(checkpoints_.size());
  for (const auto& c : checkpoints_) m.checkpoints.push_back({c.round, c.time});
  return m;
}

void SimMetrics::restore(const store::CheckpointMetrics& snapshot) {
  std::uint64_t finished = snapshot.tasks_succeeded + snapshot.tasks_interrupted +
                           snapshot.tasks_stale + snapshot.tasks_failed;
  FLINT_CHECK_LE(finished, snapshot.tasks_started);
  FLINT_CHECK_FINITE(snapshot.client_compute_s);
  FLINT_CHECK_GE(snapshot.client_compute_s, 0.0);
  tasks_started_ = snapshot.tasks_started;
  tasks_succeeded_ = snapshot.tasks_succeeded;
  tasks_interrupted_ = snapshot.tasks_interrupted;
  tasks_stale_ = snapshot.tasks_stale;
  tasks_failed_ = snapshot.tasks_failed;
  updates_aggregated_ = snapshot.updates_aggregated;
  client_compute_s_ = snapshot.client_compute_s;
  rounds_.clear();
  rounds_.reserve(snapshot.rounds.size());
  for (const auto& r : snapshot.rounds)
    rounds_.push_back({r.round, r.start, r.end, static_cast<std::size_t>(r.updates_aggregated),
                       r.mean_staleness});
  checkpoints_.clear();
  checkpoints_.reserve(snapshot.checkpoints.size());
  for (const auto& c : snapshot.checkpoints) checkpoints_.push_back({c.round, c.time});
}

}  // namespace flint::sim
