// Shared configuration and result types for the FL runners.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "flint/compress/quantize.h"
#include "flint/data/synthetic_tasks.h"
#include "flint/device/availability.h"
#include "flint/fl/lr_schedule.h"
#include "flint/fl/task_duration.h"
#include "flint/fl/trainer.h"
#include "flint/net/bandwidth_model.h"
#include "flint/obs/client_ledger.h"
#include "flint/obs/telemetry.h"
#include "flint/privacy/dp.h"
#include "flint/sim/leader.h"
#include "flint/util/client_pool.h"

namespace flint::rpc {
class Leader;
}

namespace flint::fl {

/// Inputs common to sync and async runs. Raw pointers are non-owning views
/// that must outlive the run.
struct RunInputs {
  // --- Data. In model-free mode `dataset` may be null and
  // `client_example_counts` supplies |D_k| per client id instead. ---
  const data::FederatedDataset* dataset = nullptr;
  const std::vector<std::uint32_t>* client_example_counts = nullptr;
  /// Model-free alternative to `client_example_counts` for population-scale
  /// runs: |D_k| as a pure function of client id, so no per-client vector
  /// has to be materialized. Checked after the vector form.
  std::function<std::size_t(std::uint64_t)> example_count_fn;
  std::size_t dense_dim = 0;

  // --- Model & training. `model_template` supplies architecture and the
  // initial global parameters; null in model-free mode. ---
  ml::Model* model_template = nullptr;
  LocalTrainConfig local;
  LrSchedule client_lr = LrSchedule::constant(0.05);
  double server_lr = 1.0;
  /// Server-side momentum (FedAvgM, Hsu et al.): the server update becomes
  /// v <- beta*v + mean_delta; params += server_lr * v. 0 disables.
  double server_momentum = 0.0;

  // --- Measured system inputs. Exactly one of `trace` (materialized) or
  // `window_stream` (streaming, DESIGN.md §17) must be set; the streaming
  // path yields bit-identical results while keeping resident memory
  // independent of population size. ---
  const device::AvailabilityTrace* trace = nullptr;
  device::WindowStream* window_stream = nullptr;
  const device::DeviceCatalog* catalog = nullptr;
  const net::BandwidthModel* bandwidth = nullptr;
  TaskDurationConfig duration;

  // --- Termination. ---
  std::uint64_t max_rounds = 200;     ///< aggregation rounds
  double max_virtual_s = 1e15;

  // --- Evaluation. ---
  const std::vector<ml::Example>* test = nullptr;
  data::Domain domain = data::Domain::kAds;
  std::uint64_t eval_every_rounds = 0;  ///< 0 = final evaluation only

  // --- Infrastructure. ---
  sim::LeaderConfig leader;
  std::vector<sim::ExecutorOutage> outages;

  // --- Privacy. ---
  std::optional<privacy::DpConfig> dp;

  // --- Update compression (applied after DP, before transmission). The
  // caller should set duration.update_bytes consistently, e.g. via
  // compress::compressed_bytes(). ---
  compress::CompressionConfig compression;

  /// System-metrics-only mode: skip actual SGD; updates are empty and no
  /// model evaluation runs. Used for large-scale capacity studies.
  bool model_free = false;

  /// A client participates at most once per this many virtual seconds.
  double reparticipation_gap_s = 4.0 * 3600.0;

  /// Worker threads for client training and evaluation (1 = serial). Results
  /// are bit-identical at any value — reductions happen in fixed task order
  /// and per-task RNG streams are derived from the seed (DESIGN.md §11) —
  /// so this knob trades wall time only and never enters the run fingerprint.
  std::size_t threads = 1;

  /// Multi-process execution (DESIGN.md §14): when set, client updates are
  /// dispatched as rpc TaskLeases to registered executors instead of being
  /// computed in-process. A lease is a pure function of its payload and
  /// results are consumed in submission order, so results stay bit-identical
  /// to the in-process paths — like `threads`, this knob never enters the
  /// run fingerprint. Non-owning; must outlive the run.
  rpc::Leader* rpc_leader = nullptr;

  // --- Observability. Non-owning, like the other infrastructure pointers;
  // when set, the runner installs it as the ambient obs context for the run
  // (unless it already is), publishes the virtual clock into it, and copies
  // a final metric snapshot into RunResult::telemetry. ---
  obs::Telemetry* telemetry = nullptr;

  /// Attribute task outcomes, compute, and bytes per client (device tier /
  /// availability cohort / executor) into RunResult::ledger. Cost is one
  /// hash-map update per task completion; disable for capacity studies where
  /// even that matters.
  bool collect_ledger = true;

  // --- Crash recovery (DESIGN.md §12). ---
  /// When set, the runner restores full run state from this store's newest
  /// valid checkpoint (CheckpointStore::latest()) before the first round and
  /// continues from there, finishing bit-identically to an uninterrupted
  /// run. Null, or a store with no usable checkpoint, means a fresh run.
  /// Resume refuses a checkpoint whose seed or algorithm does not match.
  store::CheckpointStore* resume_from = nullptr;

  /// Called after each completed aggregation round, after any checkpoint
  /// write for that round. Test/ops hook: the kill-and-resume e2e aborts the
  /// process from here to simulate a crash at a known round.
  std::function<void(std::uint64_t round)> round_hook;

  std::uint64_t seed = 1;
};

/// Output of one run.
struct RunResult {
  sim::SimMetrics metrics;
  std::vector<sim::EvalPoint> eval_curve;
  double final_metric = 0.0;
  double virtual_duration_s = 0.0;
  std::uint64_t rounds = 0;
  std::vector<float> final_parameters;
  /// Final telemetry snapshot (empty unless RunInputs::telemetry was set);
  /// core/report embeds it as the run's metrics summary table.
  std::vector<obs::MetricSample> telemetry;
  /// Per-client attribution rollups (empty unless RunInputs::collect_ledger);
  /// totals reconcile with `metrics` by construction.
  obs::ClientLedgerSummary ledger;

  /// Recovery lineage: the checkpoint round this run resumed from (0 for a
  /// fresh start) and how many resumes the run's checkpoint lineage has seen.
  std::uint64_t resumed_from_round = 0;
  std::uint64_t resume_count = 0;

  /// Events executed by the leader's event pump (async runner only; 0 for
  /// the hand-clocked sync runner). The denominator of bench_scale's
  /// events/s throughput.
  std::uint64_t events_executed = 0;

  /// Aggregated-update throughput, for TEE sizing (§3.5).
  double updates_per_second() const {
    return virtual_duration_s > 0.0 ? metrics.updates_per_second(virtual_duration_s) : 0.0;
  }
};

/// |D_k| for a client under either data mode.
std::size_t client_example_count(const RunInputs& inputs, std::uint64_t client_id);

/// Validate the parts of the config every runner needs.
void validate_common_inputs(const RunInputs& inputs);

/// Shared runner-side telemetry plumbing: installs `inputs.telemetry` as the
/// ambient context for the runner's scope (skipped when it already is, so an
/// outer ScopedTelemetry keeps working). Call finish(result) just before
/// returning to take the run's final snapshot — it must happen before the
/// result is copied out, which is why it is not done in the destructor.
class RunTelemetryScope {
 public:
  explicit RunTelemetryScope(const RunInputs& inputs);
  void finish(RunResult& result);
  RunTelemetryScope(const RunTelemetryScope&) = delete;
  RunTelemetryScope& operator=(const RunTelemetryScope&) = delete;

 private:
  obs::Telemetry* telemetry_;
  rpc::Leader* rpc_leader_;
  std::optional<obs::ScopedTelemetry> scope_;
};

/// Availability cohort of a client: the fraction of the trace horizon its
/// windows cover. `rare` < 5%, `regular` < 50%, `always-on` otherwise —
/// the axis Figure 2's diurnal curve makes decision-relevant (a model that
/// only ever trains on always-on devices is the bias §3.2 warns about).
enum class AvailabilityCohort : std::uint32_t { kRare = 0, kRegular = 1, kAlwaysOn = 2 };

/// Shared attribution plumbing: owns the run's ClientLedger, classifies every
/// client in the availability trace by device tier (from the catalog) and
/// availability cohort (window coverage), maps clients to executors, and
/// attaches the ledger to the leader's SimMetrics so task completions are
/// mirrored in. finish(result) folds the rollups into the result and detaches
/// — call it before the result's metrics are copied out, alongside
/// RunTelemetryScope::finish. No-op throughout when collect_ledger is false.
class RunAttributionScope {
 public:
  RunAttributionScope(const RunInputs& inputs, sim::Leader& leader);
  void finish(RunResult& result);
  RunAttributionScope(const RunAttributionScope&) = delete;
  RunAttributionScope& operator=(const RunAttributionScope&) = delete;

  /// Per-client accounts for checkpointing, sorted by client id (empty when
  /// attribution is disabled).
  std::vector<store::CheckpointClientAccount> accounts() const;

  /// Restore checkpointed accounts into the ledger (resume path; no-op when
  /// attribution is disabled). Classifications registered at construction
  /// are kept — only the counters are overwritten.
  void restore(const std::vector<store::CheckpointClientAccount>& accounts);

 private:
  bool enabled_;
  sim::Leader* leader_;
  obs::ClientLedger ledger_;
};

// --- Checkpoint/resume plumbing shared by both runners (DESIGN.md §12) ---

/// util::derive_stream() stream id reserved for the server-side Rng; task
/// ids use their own id space, so this keeps the server stream disjoint from
/// every per-task stream.
inline constexpr std::uint64_t kServerRngStreamId = 0x5EB0E15EED5ull;

/// Resolve RunInputs::resume_from into the checkpoint to restore, or nullopt
/// for a fresh run (no store, or no usable checkpoint — logged). Throws
/// CheckError when the newest valid checkpoint belongs to a different run
/// (seed mismatch) or a different runner (`algo` mismatch): silently
/// restarting a different run would corrupt the lineage.
std::optional<store::SimCheckpoint> load_resume_state(const RunInputs& inputs,
                                                      std::uint8_t algo);

/// sim <-> store conversions for the checkpoint record.
std::vector<store::CheckpointEvalPoint> checkpoint_eval_curve(
    const std::vector<sim::EvalPoint>& curve);
std::vector<sim::EvalPoint> restore_eval_curve(
    const std::vector<store::CheckpointEvalPoint>& curve);
std::vector<store::CheckpointRequeuedArrival> checkpoint_requeued(
    const std::vector<sim::Arrival>& requeued);
std::vector<sim::Arrival> restore_requeued(
    const std::vector<store::CheckpointRequeuedArrival>& requeued);
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

  /// Distinct clients recorded.
  std::size_t size() const { return keys_.size(); }

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

/// Sorted by client id so the serialized form is order-independent.
std::vector<std::pair<std::uint64_t, double>> checkpoint_participation(
    const ParticipationPool& last_participation);

}  // namespace flint::fl
