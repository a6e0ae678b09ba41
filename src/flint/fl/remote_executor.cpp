#include "flint/fl/remote_executor.h"

#include <optional>
#include <utility>

#include "flint/fl/trainer_pool.h"
#include "flint/ml/serialize.h"
#include "flint/obs/telemetry.h"
#include "flint/util/check.h"

namespace flint::fl {

void LeaseTrainService::configure(const rpc::RegisterAckMsg& ack) {
  if (ack.model_blob.empty()) {
    trainer_.reset();  // model-free run: leases should never arrive
    return;
  }
  trainer_ = std::make_unique<LocalTrainer>(ml::deserialize_model(ack.model_blob),
                                            static_cast<std::size_t>(ack.dense_dim));
}

// The lease decoder range-checks loss_kind against the last data::LossKind.
static_assert(static_cast<std::uint32_t>(data::LossKind::kPairwiseRanking) ==
              rpc::TaskLeaseMsg::kMaxLossKind);

rpc::TaskResultMsg LeaseTrainService::run_lease(const rpc::TaskLeaseMsg& lease) {
  rpc::TaskResultMsg result;
  try {
    FLINT_CHECK_MSG(trainer_ != nullptr,
                    "TaskLease received but no model was configured (model-free run?)");
    LocalTrainConfig local;
    local.lr = lease.lr;
    local.epochs = lease.epochs;
    local.batch_size = static_cast<std::size_t>(lease.batch_size);
    local.loss = static_cast<data::LossKind>(lease.loss_kind);
    local.clip_norm = lease.clip_norm;
    local.momentum = lease.momentum;
    local.prox_mu = lease.prox_mu;
    std::optional<privacy::DpConfig> dp;
    if (lease.has_dp)
      dp = privacy::DpConfig{lease.dp_clip_norm, lease.dp_noise_multiplier, lease.dp_delta};
    compress::CompressionConfig compression;
    compression.kind = static_cast<compress::CompressionKind>(lease.compression_kind);
    compression.top_k_fraction = lease.top_k_fraction;
    // Train without the in-process lossy round trip: the raw delta is encoded
    // into the wire representation instead, and the leader's take_delta()
    // reproduces apply_compression's output bit for bit (schema v3).
    ClientUpdate update = compute_client_update_raw(
        *trainer_, lease.examples, lease.params, local, lease.seed, lease.task_id, dp,
        static_cast<std::size_t>(lease.dp_participants), compress::CompressionConfig{});
    result.ok = true;
    const std::size_t raw_bytes = update.train.delta.size() * sizeof(float);
    result.encode_delta(std::move(update.train.delta), compression);
    const std::size_t wire_bytes = result.payload_bytes();
    if (wire_bytes < raw_bytes)
      obs::add_counter("rpc.bytes_saved_compression",
                       static_cast<std::uint64_t>(raw_bytes - wire_bytes));
    result.weight = update.weight;
    result.mean_loss = update.train.mean_loss;
    result.examples = update.train.examples;
  } catch (const util::CheckError& e) {
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

}  // namespace flint::fl
