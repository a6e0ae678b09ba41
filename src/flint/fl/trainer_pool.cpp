#include "flint/fl/trainer_pool.h"

#include <utility>

#include "flint/fl/aggregator.h"
#include "flint/obs/telemetry.h"
#include "flint/rpc/leader.h"
#include "flint/util/check.h"

namespace flint::fl {

TrainerPool::TrainerPool(const RunInputs& inputs) {
  FLINT_CHECK_GT(inputs.threads, std::size_t{0});
  std::size_t workers = inputs.threads > 1 ? inputs.threads : 0;
  if (!inputs.model_free) {
    FLINT_CHECK_MSG(inputs.model_template != nullptr, "model-full run without a model");
    replicas_.reserve(workers + 1);
    for (std::size_t i = 0; i < workers + 1; ++i)
      replicas_.push_back(std::make_unique<LocalTrainer>(inputs.model_template->clone(),
                                                         inputs.dense_dim));
  }
  if (workers == 0) return;
  busy_gauge_names_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    busy_gauge_names_.push_back("util.pool.thread." + std::to_string(i) + ".busy_s");
  util::ThreadPoolObserver observer;
  observer.on_task_submitted = [] { obs::add_counter("util.pool.tasks_submitted"); };
  observer.on_queue_depth = [](std::size_t depth) {
    obs::set_gauge("util.pool.queue_depth", static_cast<double>(depth));
  };
  observer.on_busy_workers = [](std::size_t busy) {
    obs::set_gauge("util.pool.busy_workers", static_cast<double>(busy));
  };
  observer.on_worker_busy = [this](std::size_t worker, double busy_s) {
    obs::set_gauge(busy_gauge_names_[worker].c_str(), busy_s);
  };
  pool_ = std::make_unique<util::ThreadPool>(workers, std::move(observer));
}

LocalTrainer& TrainerPool::trainer() {
  FLINT_CHECK_MSG(!replicas_.empty(), "TrainerPool::trainer() on a model-free run");
  std::size_t worker = util::ThreadPool::worker_index();
  if (worker == util::ThreadPool::npos) return *replicas_[0];
  FLINT_CHECK_LT(worker + 1, replicas_.size());
  return *replicas_[worker + 1];
}

ClientUpdate compute_client_update_raw(LocalTrainer& trainer,
                                       std::span<const ml::Example> data,
                                       std::span<const float> params,
                                       const LocalTrainConfig& local, std::uint64_t seed,
                                       std::uint64_t task_id,
                                       const std::optional<privacy::DpConfig>& dp,
                                       std::size_t dp_participants,
                                       const compress::CompressionConfig& compression) {
  if (util::ThreadPool::worker_index() != util::ThreadPool::npos)
    obs::add_counter("fl.parallel_train_batches");
  ClientUpdate update;
  update.train = trainer.train(data, params, local);
  if (dp.has_value()) {
    util::Rng dp_rng = util::derive_stream(seed, task_id, kRngStreamDp);
    privacy::apply_dp(update.train.delta, *dp, dp_participants, dp_rng);
    update.weight = 1.0;  // DP requires uniform weights
  } else {
    update.weight = static_cast<double>(update.train.examples);
  }
  if (compression.enabled()) compress::apply_compression(update.train.delta, compression);
  return update;
}

ClientUpdate compute_client_update(LocalTrainer& trainer, const RunInputs& inputs,
                                   std::span<const ml::Example> data,
                                   std::span<const float> params,
                                   const LocalTrainConfig& local, std::uint64_t task_id,
                                   std::size_t dp_participants) {
  return compute_client_update_raw(trainer, data, params, local, inputs.seed, task_id,
                                   inputs.dp, dp_participants, inputs.compression);
}

PendingUpdate PendingUpdate::ready(ClientUpdate update) {
  PendingUpdate p;
  p.kind_ = Kind::kReady;
  p.ready_ = std::move(update);
  return p;
}

PendingUpdate PendingUpdate::in_flight(util::TaskHandle<ClientUpdate> task) {
  PendingUpdate p;
  p.kind_ = Kind::kPool;
  p.task_ = std::move(task);
  return p;
}

PendingUpdate PendingUpdate::remote(rpc::Leader* leader, std::uint64_t lease_id) {
  PendingUpdate p;
  p.kind_ = Kind::kRemote;
  p.leader_ = leader;
  p.lease_id_ = lease_id;
  return p;
}

ClientUpdate PendingUpdate::get() {
  FLINT_CHECK_MSG(valid(), "PendingUpdate::get() on a consumed update");
  Kind kind = kind_;
  kind_ = Kind::kInvalid;
  switch (kind) {
    case Kind::kReady:
      return std::move(ready_);
    case Kind::kPool:
      return task_.get();
    case Kind::kRemote: {
      rpc::TaskResultMsg result = leader_->wait(lease_id_);
      ClientUpdate update;
      update.train.delta = result.take_delta();
      update.train.mean_loss = result.mean_loss;
      update.train.examples = static_cast<std::size_t>(result.examples);
      update.weight = result.weight;
      return update;
    }
    case Kind::kInvalid:
      break;
  }
  FLINT_CHECK_MSG(false, "unreachable PendingUpdate kind");
  return {};
}

void PendingUpdate::join_pool() {
  FLINT_CHECK_MSG(valid(), "PendingUpdate::join_pool() on a consumed update");
  if (kind_ == Kind::kPool) task_.wait();
}

void fold_in_order(std::vector<BufferedUpdate>& buffer, UpdateAccumulator& acc) {
  for (auto it = buffer.rbegin(); it != buffer.rend(); ++it) it->pending.join_pool();
  for (BufferedUpdate& b : buffer) {
    ClientUpdate update = b.pending.get();
    acc.add(update.train.delta, b.weight.value_or(update.weight));
  }
  buffer.clear();
}

PendingUpdate TrainerPool::submit_update(
    const RunInputs& inputs, std::span<const ml::Example> data,
    std::span<const float> params, const LocalTrainConfig& local, std::uint64_t task_id,
    std::uint64_t client_id, std::uint64_t round, std::size_t dp_participants,
    std::shared_ptr<const std::vector<float>> params_keepalive) {
  if (inputs.rpc_leader != nullptr) {
    // Remote lease: the full input set of compute_client_update_raw travels
    // in the message, so any executor produces byte-identical results.
    rpc::TaskLeaseMsg lease;
    lease.task_id = task_id;
    lease.client_id = client_id;
    lease.round = round;
    lease.seed = inputs.seed;
    lease.dp_participants = dp_participants;
    lease.lr = local.lr;
    lease.epochs = local.epochs;
    lease.batch_size = local.batch_size;
    lease.loss_kind = static_cast<std::uint32_t>(local.loss);
    lease.clip_norm = local.clip_norm;
    lease.momentum = local.momentum;
    lease.prox_mu = local.prox_mu;
    if (inputs.dp.has_value()) {
      lease.has_dp = true;
      lease.dp_clip_norm = inputs.dp->clip_norm;
      lease.dp_noise_multiplier = inputs.dp->noise_multiplier;
      lease.dp_delta = inputs.dp->delta;
    }
    lease.compression_kind = static_cast<std::uint32_t>(inputs.compression.kind);
    lease.top_k_fraction = inputs.compression.top_k_fraction;
    lease.params.assign(params.begin(), params.end());
    lease.examples.assign(data.begin(), data.end());
    return PendingUpdate::remote(inputs.rpc_leader,
                                 inputs.rpc_leader->submit(std::move(lease)));
  }
  if (pool_ != nullptr) {
    // Pool task: `params` (kept alive by the caller or `params_keepalive`)
    // is read when the task runs — on a worker, or on the joining thread if
    // no worker got to it first — which is semantically identical: the
    // runners never mutate params while updates are in flight against it.
    // trainer() is resolved by whichever thread runs the task.
    auto keepalive = std::move(params_keepalive);
    return PendingUpdate::in_flight(
        pool_->submit([this, &inputs, data, params, keepalive, local, task_id,
                       dp_participants] {
          return compute_client_update(trainer(), inputs, data, params, local, task_id,
                                       dp_participants);
        }));
  }
  return PendingUpdate::ready(compute_client_update(trainer(), inputs, data, params, local,
                                                    task_id, dp_participants));
}

}  // namespace flint::fl
