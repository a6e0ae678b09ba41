// Client task descriptors shared by the leader, executors, and metrics.
#pragma once

#include <cstdint>

#include "flint/sim/time_heap.h"

namespace flint::sim {

/// Why a client task ended.
enum class TaskOutcome {
  kSucceeded,    ///< update delivered and aggregated (or buffered)
  kInterrupted,  ///< device left availability before finishing
  kStale,        ///< finished, but update discarded (staleness / round over)
  kFailed,       ///< infrastructure failure (executor outage)
};

/// A dispatched client task.
struct TaskSpec {
  std::uint64_t task_id = 0;
  std::uint64_t client_id = 0;
  std::size_t device_index = 0;
  std::uint64_t model_version = 0;  ///< global version the client trained on
  VirtualTime dispatch_time = 0.0;
  double compute_s = 0.0;  ///< on-device training time (t * E * |D_k|)
  double comm_s = 0.0;     ///< model down+up transfer time (2M / N)
  std::size_t examples = 0;
  /// Update size M in bytes (also the model download size); attribution
  /// bookkeeping derives per-client bytes up/down from it.
  std::uint64_t update_bytes = 0;
};

/// A finished task, as the metrics count it.
struct TaskResult {
  TaskSpec spec;
  TaskOutcome outcome = TaskOutcome::kSucceeded;
  VirtualTime finish_time = 0.0;
  double spent_compute_s = 0.0;  ///< device compute actually consumed
};

}  // namespace flint::sim
