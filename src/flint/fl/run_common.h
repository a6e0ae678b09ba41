// Shared configuration and result types for the FL runners.
#pragma once

#include <functional>
#include <optional>
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

}  // namespace flint::fl
