// System metrics the experimental framework reports alongside model metrics:
// task accounting (Figure 8), client compute time (Table 3), round/buffer
// durations (Figure 7), and aggregation throughput for TEE sizing (§3.5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flint/obs/client_ledger.h"
#include "flint/sim/task.h"
#include "flint/store/checkpoint.h"

namespace flint::sim {

/// One aggregation round's record.
struct RoundRecord {
  std::uint64_t round = 0;
  VirtualTime start = 0.0;
  VirtualTime end = 0.0;
  std::size_t updates_aggregated = 0;
  double mean_staleness = 0.0;

  double duration_s() const { return end - start; }
};

/// Periodic model evaluation point.
struct EvalPoint {
  VirtualTime time = 0.0;
  std::uint64_t round = 0;
  double metric = 0.0;  ///< AUPR / NDCG
  double train_loss = 0.0;
};

/// One leader checkpoint write, for the run timeline.
struct CheckpointRecord {
  std::uint64_t round = 0;
  VirtualTime time = 0.0;
};

/// Accumulated system metrics for one simulation run.
class SimMetrics {
 public:
  void on_task_started() { ++tasks_started_; }
  void on_task_finished(const TaskResult& result);
  void on_round(const RoundRecord& record);
  void on_checkpoint(const CheckpointRecord& record) { checkpoints_.push_back(record); }

  /// Attach a per-client attribution ledger (non-owning; must outlive the
  /// metrics' use). Every subsequent on_task_finished is mirrored into it,
  /// so ledger totals reconcile with the aggregate counters by construction.
  void attach_ledger(obs::ClientLedger* ledger) { ledger_ = ledger; }

  std::uint64_t tasks_started() const { return tasks_started_; }
  std::uint64_t tasks_succeeded() const { return tasks_succeeded_; }
  std::uint64_t tasks_interrupted() const { return tasks_interrupted_; }
  std::uint64_t tasks_stale() const { return tasks_stale_; }
  std::uint64_t tasks_failed() const { return tasks_failed_; }

  /// Total on-device compute consumed, including wasted work ("client
  /// computation is the projected sum of processing time on all devices").
  double client_compute_s() const { return client_compute_s_; }

  std::uint64_t updates_aggregated() const { return updates_aggregated_; }
  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  const std::vector<CheckpointRecord>& checkpoints() const { return checkpoints_; }

  /// Mean round (buffer-fill) duration over completed rounds.
  double mean_round_duration_s() const;

  /// Aggregated updates per virtual second over [0, horizon]. A non-positive
  /// or non-finite horizon returns 0 (never NaN/inf, never throws).
  double updates_per_second(VirtualTime horizon) const;

  /// Fraction of started tasks whose work was wasted (not aggregated).
  double waste_fraction() const;

  /// Checkpointable copy of the accumulated state (counters, round records,
  /// checkpoint-write records). The attached ledger is snapshotted separately
  /// by the attribution layer that owns it.
  store::CheckpointMetrics snapshot() const;

  /// Restore state captured by snapshot() (checkpoint resume). Leaves the
  /// attached ledger untouched.
  void restore(const store::CheckpointMetrics& snapshot);

 private:
  std::uint64_t tasks_started_ = 0;
  std::uint64_t tasks_succeeded_ = 0;
  std::uint64_t tasks_interrupted_ = 0;
  std::uint64_t tasks_stale_ = 0;
  std::uint64_t tasks_failed_ = 0;
  double client_compute_s_ = 0.0;
  std::uint64_t updates_aggregated_ = 0;
  std::vector<RoundRecord> rounds_;
  std::vector<CheckpointRecord> checkpoints_;
  obs::ClientLedger* ledger_ = nullptr;  ///< non-owning; null = no attribution
};

}  // namespace flint::sim
