// The parallel client-training runtime shared by the fedavg and fedbuff
// runners.
//
// TrainerPool pairs a util::ThreadPool with one LocalTrainer replica per
// worker (plus one for the submitting thread), and wires the pool's observer
// hooks to flint::obs gauges (util.pool.queue_depth, util.pool.busy_workers,
// util.pool.thread.<i>.busy_s) and the util.pool.tasks_submitted counter.
//
// Determinism contract: every simulated task draws its randomness from
// counter-based streams derived from (inputs.seed, task id) — never from a
// shared Rng — and the runners join futures / reduce updates in fixed task
// order. Together those make the run a pure function of the inputs: at any
// `threads` value the results are bit-identical, only wall time changes.
//
// Concurrency contract: TrainerPool itself holds no mutex. Each trainer
// replica is owned by exactly one worker thread (trainer_for indexes by
// ThreadPool::worker_index()), so replicas are never shared; the only
// cross-thread state lives inside util::ThreadPool, whose members carry
// thread-safety capabilities (see util/thread_annotations.h).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "flint/fl/run_common.h"
#include "flint/util/thread_pool.h"

namespace flint::rpc {
class Leader;
}

namespace flint::fl {

// Substream tags for util::derive_stream(seed, task_id, substream). Each
// per-task consumer owns a tag so adding one never perturbs the others.
inline constexpr std::uint64_t kRngStreamDuration = 1;  ///< TaskDurationModel::sample
inline constexpr std::uint64_t kRngStreamDp = 2;        ///< privacy::apply_dp noise

/// One client's full update pipeline — local SGD against `params`, then the
/// DP mechanism (noise from the task's kRngStreamDp stream) and lossy
/// compression. A pure function of its arguments, safe to run on any thread
/// or in any process; DP forces the aggregation weight to 1.0, so the result
/// carries the weight the accumulator should use. Counts
/// fl.parallel_train_batches when executed on a pool worker.
struct ClientUpdate {
  LocalTrainResult train;
  double weight = 0.0;
};

/// The primitive-argument form: everything it reads is in the signature, so
/// the rpc executor (which has a TaskLease, not a RunInputs) calls the same
/// code path the in-process runners do — that shared body is what makes
/// remote results bit-identical.
ClientUpdate compute_client_update_raw(LocalTrainer& trainer,
                                       std::span<const ml::Example> data,
                                       std::span<const float> params,
                                       const LocalTrainConfig& local, std::uint64_t seed,
                                       std::uint64_t task_id,
                                       const std::optional<privacy::DpConfig>& dp,
                                       std::size_t dp_participants,
                                       const compress::CompressionConfig& compression);

/// RunInputs convenience wrapper over compute_client_update_raw.
ClientUpdate compute_client_update(LocalTrainer& trainer, const RunInputs& inputs,
                                   std::span<const ml::Example> data,
                                   std::span<const float> params,
                                   const LocalTrainConfig& local, std::uint64_t task_id,
                                   std::size_t dp_participants);

/// A client update that may be ready now (serial path), in flight on a pool
/// worker, or leased to a remote executor. One-shot: get() consumes it
/// (valid() turns false), and the runners call get() in fixed submission
/// order, which is what imposes the deterministic reduction order on every
/// execution mode.
class PendingUpdate {
 public:
  PendingUpdate() = default;

  static PendingUpdate ready(ClientUpdate update);
  static PendingUpdate in_flight(std::future<ClientUpdate> future);
  static PendingUpdate remote(rpc::Leader* leader, std::uint64_t lease_id);

  /// True until get() consumes the update.
  bool valid() const { return kind_ != Kind::kInvalid; }

  /// Block until the update is available and return it (joins the future /
  /// waits on the rpc lease). Requires valid().
  ClientUpdate get();

 private:
  enum class Kind { kInvalid, kReady, kFuture, kRemote };

  Kind kind_ = Kind::kInvalid;
  ClientUpdate ready_;
  std::future<ClientUpdate> future_;
  rpc::Leader* leader_ = nullptr;
  std::uint64_t lease_id_ = 0;
};

class TrainerPool {
 public:
  /// Builds the runtime for one run: a thread pool when inputs.threads > 1
  /// (serial execution otherwise, pool() == nullptr) and trainer replicas
  /// when the run is model-full. The pool's gauges report to whatever
  /// telemetry is ambient when the callbacks fire, so construct after the
  /// run's telemetry is installed (RunCore does).
  explicit TrainerPool(const RunInputs& inputs);

  /// The pool to fan work across, or nullptr for the serial path.
  util::ThreadPool* pool() { return pool_.get(); }

  /// The LocalTrainer replica owned by the calling thread: pool workers get
  /// their own slot, every off-pool thread shares slot 0 (the runners only
  /// ever train from the simulation thread or pool workers). Requires a
  /// model-full run.
  LocalTrainer& trainer();

  /// Submit one client-update computation on whichever execution mode the
  /// run uses, in precedence order: rpc lease (inputs.rpc_leader set), pool
  /// task, or computed-right-now serial. The returned PendingUpdate is
  /// consumed by the runner in submission order.
  ///
  /// `params` must stay valid until get() on the pool path (the runners
  /// guarantee this: fedavg joins before mutating, fedbuff passes
  /// `params_keepalive` to pin its dispatch-time snapshot). The serial and
  /// remote paths read `params` before returning.
  PendingUpdate submit_update(const RunInputs& inputs, std::span<const ml::Example> data,
                              std::span<const float> params, const LocalTrainConfig& local,
                              std::uint64_t task_id, std::uint64_t client_id,
                              std::uint64_t round, std::size_t dp_participants,
                              std::shared_ptr<const std::vector<float>> params_keepalive = {});

 private:
  std::vector<std::unique_ptr<LocalTrainer>> replicas_;  ///< [0]=off-pool, [i+1]=worker i
  std::vector<std::string> busy_gauge_names_;  ///< precomputed "util.pool.thread.<i>.busy_s"
  std::unique_ptr<util::ThreadPool> pool_;     ///< last member: workers must die first
};

}  // namespace flint::fl
