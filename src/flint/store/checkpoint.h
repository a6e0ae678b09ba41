// Simulation checkpointing: "the leader frequently checkpoints the virtual
// time and recent model weights to the pipeline storage, [so] any restarted
// leader and executor can resume from the checkpoints without losing more
// than one round of work" (§3.4).
//
// A SimCheckpoint is a complete, self-contained snapshot of run state — not
// just the model. It carries everything a restarted runner needs to continue
// bit-identically: optimizer momentum, the server RNG stream, arrival-trace
// and requeue cursors, SimMetrics (task accounting, round records, eval
// curve), per-client ledger accounts, and for FedBuff the pending-update
// buffer plus every in-flight task with its staleness tag. The resume path
// lives in fl/run_common (DESIGN.md §12); this layer only defines the record
// and its durable encoding.
//
// On-disk format (version 2): a fixed header
//   "FCKP" | u32 version | u64 payload_size | u32 crc32(payload)
// followed by the payload. The CRC plus length make torn or bit-flipped
// files detectable before any field is trusted; deserialize_checkpoint
// throws CheckError on any mismatch, and CheckpointStore::latest() falls
// back to the newest checkpoint that does verify. The store layer sits
// below sim/, so the structs here mirror sim types (RoundRecord, EvalPoint,
// Arrival) without including them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "flint/util/thread_annotations.h"

namespace flint::store {

/// Which runner wrote the checkpoint; resume refuses a mismatched algorithm.
inline constexpr std::uint8_t kCheckpointAlgoUnknown = 0;
inline constexpr std::uint8_t kCheckpointAlgoFedAvg = 1;
inline constexpr std::uint8_t kCheckpointAlgoFedBuff = 2;

/// A requeued arrival waiting in the scheduler's retry heap (a client whose
/// reparticipation gap pushed it past its original trace window entry).
struct CheckpointRequeuedArrival {
  double time = 0.0;
  std::uint64_t client_id = 0;
  std::uint64_t device_index = 0;
  double window_end = 0.0;
};

/// Mirror of sim::RoundRecord.
struct CheckpointRoundRecord {
  std::uint64_t round = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t updates_aggregated = 0;
  double mean_staleness = 0.0;
};

/// Mirror of sim::EvalPoint.
struct CheckpointEvalPoint {
  double time = 0.0;
  std::uint64_t round = 0;
  double metric = 0.0;
  double train_loss = 0.0;
};

/// Mirror of sim::CheckpointRecord (one prior checkpoint write, so a resumed
/// run's timeline still lists them).
struct CheckpointWriteRecord {
  std::uint64_t round = 0;
  double time = 0.0;
};

/// One client's ledger account (counters only; tier/cohort/executor labels
/// are re-derived from the trace at resume time by the attribution scope).
struct CheckpointClientAccount {
  std::uint64_t client_id = 0;
  std::uint64_t tasks_succeeded = 0;
  std::uint64_t tasks_interrupted = 0;
  std::uint64_t tasks_stale = 0;
  std::uint64_t tasks_failed = 0;
  double compute_s = 0.0;
  double wasted_compute_s = 0.0;
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;
};

/// Full SimMetrics state.
struct CheckpointMetrics {
  std::uint64_t tasks_started = 0;
  std::uint64_t tasks_succeeded = 0;
  std::uint64_t tasks_interrupted = 0;
  std::uint64_t tasks_stale = 0;
  std::uint64_t tasks_failed = 0;
  std::uint64_t updates_aggregated = 0;
  double client_compute_s = 0.0;
  std::vector<CheckpointRoundRecord> rounds;
  std::vector<CheckpointWriteRecord> checkpoints;
};

/// One FedBuff task in flight at checkpoint time. The training result is
/// materialized into the record (delta + weight), so resume re-schedules the
/// completion event without re-running the worker; `stamp` preserves the
/// original event-queue scheduling order for tie-breaking.
struct CheckpointInFlightTask {
  std::uint64_t task_id = 0;
  std::uint64_t client_id = 0;
  std::uint64_t device_index = 0;
  std::uint64_t model_version = 0;  ///< staleness tag: version at dispatch
  double dispatch_time = 0.0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  std::uint64_t examples = 0;
  std::uint64_t update_bytes = 0;
  double spent_compute_s = 0.0;
  double window_end = 0.0;
  double finish_time = 0.0;
  bool interrupted = false;  ///< fate decided at dispatch: ends early, no upload
  std::uint64_t stamp = 0;
  double update_weight = 0.0;
  std::vector<float> update_delta;
};

/// FedBuff runner state: the partially-filled aggregation buffer and the
/// async event-pump bookkeeping.
struct CheckpointFedBuff {
  std::vector<double> accumulator_sum;  ///< weighted update sum, model dim
  double accumulator_weight_sum = 0.0;
  std::uint64_t accumulator_count = 0;
  double staleness_sum = 0.0;  ///< staleness accumulated toward the next round
  double round_start = 0.0;
  double last_aggregation_time = 0.0;
  bool pump_scheduled = false;  ///< a dispatch-pump wakeup event was pending
  double pump_time = 0.0;
  std::uint64_t pump_stamp = 0;
  std::uint64_t next_stamp = 0;
  std::vector<CheckpointInFlightTask> in_flight;  ///< in task-id order
};

/// The state a restarted leader needs to resume.
struct SimCheckpoint {
  double virtual_time_s = 0.0;
  std::uint64_t round = 0;               ///< completed aggregation rounds
  std::uint64_t tasks_completed = 0;
  std::vector<float> model_parameters;   ///< current global model

  // Run identity and recovery lineage. Resume refuses a seed or algorithm
  // mismatch: a checkpoint only continues the exact run that wrote it.
  std::uint64_t run_seed = 0;
  std::uint8_t algo = kCheckpointAlgoUnknown;
  std::uint64_t resume_count = 0;        ///< resumes already in this lineage
  std::uint64_t checkpoints_written = 0;

  // Server-side training state. The LR schedule needs no extra state: it is
  // a pure function of `round`, which is restored above.
  std::vector<float> server_velocity;    ///< optimizer momentum (may be empty)
  std::string server_rng_state;          ///< util::Rng::serialize_state()
  std::uint64_t next_task_id = 0;

  // Scheduler/arrival position.
  std::uint64_t arrival_cursor = 0;      ///< trace windows already consumed
  std::vector<CheckpointRequeuedArrival> requeued;  ///< in pop order
  /// Last dispatch time per client (reparticipation gating), client-id order.
  std::vector<std::pair<std::uint64_t, double>> last_participation;

  // Accounting.
  CheckpointMetrics metrics;
  std::vector<CheckpointEvalPoint> eval_curve;
  std::vector<CheckpointClientAccount> client_accounts;  ///< client-id order

  // Async-runner section, present only for FedBuff checkpoints.
  bool has_fedbuff = false;
  CheckpointFedBuff fedbuff;
};

/// Durable checkpoint directory. Checkpoints are written atomically
/// (tmp + rename, with the stream verified before publish) and numbered
/// monotonically; latest() returns the newest checkpoint that deserializes
/// cleanly, skipping corrupt or truncated files with a warning. write() is
/// safe to call from multiple threads (parallel executors checkpoint through
/// one store); sequence numbers stay unique. Stale `.tmp` leftovers from a
/// crashed writer are swept at construction and never count toward
/// numbering.
class CheckpointStore {
 public:
  /// Creates the directory if missing.
  explicit CheckpointStore(std::string dir);

  /// Write the next checkpoint; returns its sequence number. Throws
  /// CheckError (and removes the partial file) if the write cannot be
  /// completed, e.g. on a full disk — a truncated checkpoint must never be
  /// published.
  std::int64_t write(const SimCheckpoint& checkpoint) FLINT_EXCLUDES(seq_mutex_);

  /// Newest checkpoint that passes integrity verification, or nullopt when
  /// none does. Unreadable or corrupt files are skipped with a warning.
  std::optional<SimCheckpoint> latest() const;

  /// Number of complete checkpoints on disk.
  std::size_t checkpoint_count() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  util::Mutex seq_mutex_;  ///< guards next_seq_ across writer threads
  std::int64_t next_seq_ FLINT_GUARDED_BY(seq_mutex_) = 1;
};

std::vector<char> serialize_checkpoint(const SimCheckpoint& c);
SimCheckpoint deserialize_checkpoint(const std::vector<char>& bytes);

}  // namespace flint::store
