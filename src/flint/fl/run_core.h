// The run plumbing shared by the sync (FedAvg) and async (FedBuff) runners:
// set-up, resume, checkpoint state, task start, evaluation, round close and
// finish. Internal to fl/ — only fedavg.cpp and fedbuff.cpp include it; each
// runner keeps only its scheduling policy on top.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "flint/fl/aggregator.h"
#include "flint/fl/run_common.h"
#include "flint/fl/trainer_pool.h"
#include "flint/util/client_pool.h"

namespace flint::fl {

/// Pooled client -> last-participation-time map shared by both runners'
/// cooldown gates. Interned keys plus a fixed-chunk value column (DESIGN.md
/// §17): per-client cost is ~16 bytes with no hash-map node or load-factor
/// overhead, growth never reallocates existing state, and the layout is a
/// pure function of the record() sequence.
class ParticipationPool {
 public:
  /// Last recorded participation time for `client`, if any.
  std::optional<double> last(std::uint64_t client) const {
    auto slot = keys_.find(client);
    if (!slot) return std::nullopt;
    return times_[*slot];
  }

  /// Record (or overwrite) a client's participation time.
  void record(std::uint64_t client, double when) {
    std::uint32_t slot = keys_.intern(client);
    if (slot == times_.size())
      times_.push_back(when);
    else
      times_[slot] = when;
  }

  /// All entries sorted by client id (the order-independent checkpoint form).
  std::vector<std::pair<std::uint64_t, double>> sorted_entries() const;

  /// Load checkpointed entries (resume path).
  void restore(const std::vector<std::pair<std::uint64_t, double>>& entries) {
    for (const auto& [client, when] : entries) record(client, when);
  }

 private:
  util::KeyInterner keys_;
  util::ChunkedColumn<double> times_;
};

/// A dispatched task with its fate decided at dispatch: whether the client's
/// availability window cuts it off, when it ends, and how much compute it
/// spends either way.
struct StartedTask {
  sim::TaskSpec spec;
  sim::VirtualTime finish = 0.0;  ///< completion time, or the window end when interrupted
  sim::VirtualTime window_end = 0.0;
  double spent_compute_s = 0.0;
  bool interrupted = false;
};

/// One run's shared state. Members are public: the runners read and mutate
/// them directly, and the methods below are the steps both runners take in
/// the same order.
class RunCore {
 public:
  /// Validates the inputs every runner needs, installs `in.telemetry` as the
  /// ambient context for the run (unless it already is, so an outer
  /// ScopedTelemetry keeps working), and builds the leader (from the trace or
  /// the window stream, with outages), the attribution ledger, durations,
  /// trainers, server optimizer, parameters and eval model. `algo` tags the
  /// checkpoints this run writes and must match the one it resumes from.
  RunCore(const RunInputs& inputs, std::uint8_t algo);
  RunCore(const RunCore&) = delete;
  RunCore& operator=(const RunCore&) = delete;

  /// |D_k| for a client under either data mode.
  std::size_t examples_of(std::uint64_t client_id) const;

  /// Resolve RunInputs::resume_from and restore the base state from it:
  /// params, server optimizer and RNG, task ids, participation, arrivals,
  /// leader progress, attribution accounts, eval curve and lineage. Returns
  /// the checkpoint so the runner can restore its own position and section,
  /// or nullopt for a fresh run (no store, or no usable checkpoint — logged).
  /// Throws CheckError when the newest valid checkpoint belongs to a
  /// different run (seed) or runner (algo): silently restarting a different
  /// run would corrupt the lineage.
  std::optional<store::SimCheckpoint> resume();

  /// Start a task for `arrival` at `dispatch_t`: sample its duration from the
  /// task's own derived stream, take the next task id, decide whether the
  /// window interrupts it, and record the start (metrics, executor load,
  /// participation, fl.tasks_dispatched). Requires `examples` > 0.
  StartedTask start_task(const sim::Arrival& arrival, sim::VirtualTime dispatch_t,
                         std::uint64_t model_version, std::size_t examples);

  /// Record a task's outcome at its `finish` time.
  void finish_task(const StartedTask& task, sim::TaskOutcome outcome);

  /// Close aggregation round `round` (`start`..`end`, `aggregated` updates):
  /// round metrics and telemetry, the eval cadence, then the checkpoint
  /// cadence — after the eval so the snapshot carries the complete round and
  /// a resume replays only the future — and finally RunInputs::round_hook.
  /// `fill_section` adds the runner's own checkpoint section to the base
  /// fields; it runs only when a checkpoint is written.
  void close_round(std::uint64_t round, sim::VirtualTime start, sim::VirtualTime end,
                   std::size_t aggregated, double mean_staleness,
                   const std::function<void(store::SimCheckpoint&)>& fill_section = nullptr);

  /// Final evaluation and eval-curve tail, then the result: parameters,
  /// metrics, attribution rollups and the telemetry snapshot, in that order
  /// (the snapshot must be taken before the result is copied out).
  RunResult finish(std::uint64_t rounds, sim::VirtualTime virtual_duration_s);

  // Declaration order is construction order: the telemetry scope is
  // installed before the trainer pool starts, and the ledger outlives the
  // leader whose metrics point at it.
  const RunInputs& in;

 private:
  struct AmbientTelemetry {
    explicit AmbientTelemetry(obs::Telemetry* telemetry) {
      if (telemetry != nullptr && obs::current() != telemetry) scope.emplace(telemetry);
    }
    std::optional<obs::ScopedTelemetry> scope;
  };
  AmbientTelemetry telemetry_scope_;
  obs::ClientLedger ledger_;

 public:
  sim::Leader leader;
  TaskDurationModel durations;
  TrainerPool trainers;
  ServerOptimizer server_opt;
  std::vector<float> params;  ///< global model (empty in model-free mode)
  /// Server-side RNG stream, checkpointed with the run. Neither runner draws
  /// from it today; restoring it keeps resume bit-identical the moment any
  /// server-side stochastic decision lands (DESIGN.md §12).
  util::Rng server_rng;
  ParticipationPool participation;
  std::uint64_t task_ids = 0;      ///< next task id
  std::uint64_t resume_count = 0;  ///< resumes in this run's checkpoint lineage
  RunResult result;

 private:
  /// The eval metric of the current params, or nullopt when the run does
  /// not evaluate (model-free, or no test set).
  std::optional<double> evaluate();
  void fill_checkpoint(store::SimCheckpoint& ckpt);

  std::uint8_t algo_;
  std::unique_ptr<ml::Model> eval_model_;
  // Telemetry handles for the per-task and per-round paths.
  obs::CachedCounter dispatched_counter_;
  obs::CachedCounter rounds_counter_;
  obs::CachedGauge round_gauge_;
  obs::CachedHistogram round_duration_hist_;
};

}  // namespace flint::fl
