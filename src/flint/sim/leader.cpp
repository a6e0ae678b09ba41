#include "flint/sim/leader.h"

#include "flint/obs/telemetry.h"
#include "flint/util/check.h"

namespace flint::sim {

Leader::Leader(const LeaderConfig& config, const device::AvailabilityTrace& trace)
    : config_(config), arrivals_(trace), executors_(config.executor_count) {
  if (config_.checkpoint_every_rounds > 0)
    FLINT_CHECK_MSG(config_.checkpoint_store != nullptr,
                    "checkpoint cadence set but no checkpoint store provided");
}

Leader::Leader(const LeaderConfig& config, device::WindowStream& windows)
    : config_(config), arrivals_(windows), executors_(config.executor_count) {
  if (config_.checkpoint_every_rounds > 0)
    FLINT_CHECK_MSG(config_.checkpoint_store != nullptr,
                    "checkpoint cadence set but no checkpoint store provided");
}

std::optional<store::SimCheckpoint> Leader::on_aggregation(
    std::uint64_t round, const std::vector<float>& model_parameters,
    std::uint64_t tasks_completed) {
  // Aggregations are numbered from 1 and arrive in order on the virtual
  // clock; a regression here means a runner replayed or skipped a round.
  FLINT_CHECK_GT(round, std::uint64_t{0});
  FLINT_CHECK_GT(round, last_aggregation_round_);
  last_aggregation_round_ = round;
  if (config_.checkpoint_every_rounds == 0) return std::nullopt;
  if (round % config_.checkpoint_every_rounds != 0) return std::nullopt;
  // The sync runner drives virtual time by hand and never pumps queue_, so
  // the just-recorded round's end (on_round always precedes on_aggregation)
  // is the authoritative clock for both runners.
  VirtualTime now = metrics_.rounds().empty() ? queue_.now() : metrics_.rounds().back().end;
  // Record this write before snapshotting so a run resumed from the
  // checkpoint replays it in its own timeline, keeping the checkpoint-record
  // list bit-identical to an uninterrupted run's.
  ++checkpoints_written_;
  metrics_.on_checkpoint({round, now});
  store::SimCheckpoint ckpt;
  ckpt.virtual_time_s = now;
  ckpt.round = round;
  ckpt.tasks_completed = tasks_completed;
  ckpt.model_parameters = model_parameters;
  ckpt.checkpoints_written = checkpoints_written_;
  obs::add_counter("leader.checkpoints_written");
  return ckpt;
}

void Leader::restore(const store::SimCheckpoint& checkpoint) {
  last_aggregation_round_ = checkpoint.round;
  checkpoints_written_ = checkpoint.checkpoints_written;
  metrics_.restore(checkpoint.metrics);
}

}  // namespace flint::sim
