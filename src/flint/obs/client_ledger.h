// Per-client attribution ledger for the observability subsystem.
//
// SimMetrics answers "what did the run cost in aggregate"; the ledger answers
// "which clients paid for it". Every task completion is attributed to its
// client, and clients carry two classification axes assigned at registration
// time by the feeder (the FL runner, which sits above device/):
//
//   tier    — device hardware tier (high-end / mid-range / low-end)
//   cohort  — availability cohort (how much of the trace horizon the client
//             was eligible for work: rare / regular / always-on)
//
// obs sits below device/ in the layering, so tiers and cohorts arrive here as
// small label indices plus display names; the ledger never names a
// DeviceProfile. Aggregation happens at summary() time: per-tier and
// per-cohort rollups, whole-run totals (which must reconcile with SimMetrics
// — a ctest enforces it), and the top-K stragglers by wasted compute.
//
// Single-writer: the runners feed it from the (single-threaded) event pump,
// like SimMetrics itself. Not thread-safe by design.
// Storage is struct-of-arrays (DESIGN.md §17): client keys are interned to
// dense slots and every counter lives in a fixed-chunk column, so a
// million-client run costs ~100 bytes per *touched* client with no hash-map
// node overhead and no reallocation spikes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flint/util/client_pool.h"

namespace flint::obs {

/// Task fate as the ledger sees it; mirrors sim::TaskOutcome without
/// depending on sim (obs is below it).
enum class LedgerOutcome { kSucceeded, kInterrupted, kStale, kFailed };

/// One client's accumulated account.
struct ClientLedgerEntry {
  std::uint64_t client_id = 0;
  std::uint32_t tier = 0;      ///< index into ClientLedger::tier_labels()
  std::uint32_t cohort = 0;    ///< index into ClientLedger::cohort_labels()
  std::uint32_t executor = 0;  ///< owning executor in the simulated cluster

  std::uint64_t tasks_succeeded = 0;
  std::uint64_t tasks_interrupted = 0;
  std::uint64_t tasks_stale = 0;
  std::uint64_t tasks_failed = 0;

  double compute_s = 0.0;         ///< on-device compute consumed, all tasks
  double wasted_compute_s = 0.0;  ///< compute on tasks that never aggregated
  std::uint64_t bytes_down = 0;   ///< model downloads
  std::uint64_t bytes_up = 0;     ///< update uploads (interrupted tasks skip)

  std::uint64_t tasks_finished() const {
    return tasks_succeeded + tasks_interrupted + tasks_stale + tasks_failed;
  }
};

/// One aggregation bucket (a tier, a cohort, or the whole run).
struct LedgerRollup {
  std::string key;  ///< display label ("high-end", "always-on", "all", ...)
  std::uint64_t clients = 0;  ///< clients with at least one finished task
  std::uint64_t tasks_succeeded = 0;
  std::uint64_t tasks_interrupted = 0;
  std::uint64_t tasks_stale = 0;
  std::uint64_t tasks_failed = 0;
  double compute_s = 0.0;
  double wasted_compute_s = 0.0;
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;

  std::uint64_t tasks_finished() const {
    return tasks_succeeded + tasks_interrupted + tasks_stale + tasks_failed;
  }
  /// Fraction of this bucket's compute that was wasted.
  double waste_fraction() const {
    return compute_s > 0.0 ? wasted_compute_s / compute_s : 0.0;
  }
};

/// Aggregated view of a finished run's ledger, embedded in RunResult and the
/// run artifact.
struct ClientLedgerSummary {
  std::vector<LedgerRollup> by_tier;      ///< one row per tier label, in order
  std::vector<LedgerRollup> by_cohort;    ///< one row per cohort label
  std::vector<LedgerRollup> by_executor;  ///< one row per executor with work
  LedgerRollup totals;                    ///< whole-run account (key "all")
  /// Clients ranked by wasted compute, worst first (at most the requested K).
  std::vector<ClientLedgerEntry> stragglers;

  bool empty() const { return totals.tasks_finished() == 0; }
};

/// The ledger itself. register_client() is optional per client: a completion
/// for an unregistered client lands in tier/cohort index 0 with executor 0,
/// so partially-wired feeders still reconcile in totals.
class ClientLedger {
 public:
  ClientLedger();

  /// Display names for the tier/cohort axes: the standard three-tier /
  /// three-cohort classification.
  const std::vector<std::string>& tier_labels() const { return tier_labels_; }
  const std::vector<std::string>& cohort_labels() const { return cohort_labels_; }

  /// Classify a client. Indices beyond the label vectors are clamped at
  /// summary time. Re-registering overwrites the classification but keeps
  /// the accumulated account.
  void register_client(std::uint64_t client_id, std::uint32_t tier, std::uint32_t cohort,
                       std::uint32_t executor);

  /// Attribute one finished task. `compute_s` is the compute actually spent
  /// (partial for interrupted tasks); it counts as wasted unless the outcome
  /// is kSucceeded. `update_bytes` is the model/update transfer size M: the
  /// download always happened, the upload only when the task ran to
  /// completion (succeeded or stale).
  void on_task_finished(std::uint64_t client_id, LedgerOutcome outcome, double compute_s,
                        std::uint64_t update_bytes);

  /// Distinct clients touched (registered or attributed).
  std::size_t client_count() const { return keys_.size(); }

  /// Assemble the account at dense slot `slot` (slots are first-touch order,
  /// 0 <= slot < client_count()). Consumers that need a canonical order sort
  /// by ClientLedgerEntry::client_id.
  ClientLedgerEntry entry_at(std::uint32_t slot) const;

  /// Overwrite one client's accumulated counters from a checkpoint (resume
  /// path), keeping whatever tier/cohort/executor classification this run's
  /// feeder registered.
  void restore_account(const ClientLedgerEntry& account);

  /// Aggregate the account: per-tier / per-cohort / per-executor rollups,
  /// totals, and the top_k clients by wasted compute.
  ClientLedgerSummary summary(std::size_t top_k = 10) const;

 private:
  /// Dense slot for `client_id`, appending zeroed columns on first touch.
  std::uint32_t slot(std::uint64_t client_id);

  // Struct-of-arrays per-client state, indexed by the interned slot.
  util::KeyInterner keys_;
  util::ChunkedColumn<std::uint32_t> tier_;
  util::ChunkedColumn<std::uint32_t> cohort_;
  util::ChunkedColumn<std::uint32_t> executor_;
  util::ChunkedColumn<std::uint64_t> tasks_succeeded_;
  util::ChunkedColumn<std::uint64_t> tasks_interrupted_;
  util::ChunkedColumn<std::uint64_t> tasks_stale_;
  util::ChunkedColumn<std::uint64_t> tasks_failed_;
  util::ChunkedColumn<double> compute_s_;
  util::ChunkedColumn<double> wasted_compute_s_;
  util::ChunkedColumn<std::uint64_t> bytes_down_;
  util::ChunkedColumn<std::uint64_t> bytes_up_;
  std::vector<std::string> tier_labels_;
  std::vector<std::string> cohort_labels_;
};

}  // namespace flint::obs
