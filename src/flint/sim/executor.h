// Executor pool: the simulated cluster workers that "poll tasks to run from
// a leader node" (§3.4). Each executor owns the clients whose id is
// congruent to its index and can suffer outages; the leader halts
// dispatching while any executor is unhealthy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flint/obs/telemetry.h"
#include "flint/sim/event_queue.h"

namespace flint::sim {

/// A planned executor outage window.
struct ExecutorOutage {
  std::size_t executor = 0;
  VirtualTime start = 0.0;
  VirtualTime end = 0.0;
};

/// Health and ownership bookkeeping for a pool of executors.
class ExecutorPool {
 public:
  explicit ExecutorPool(std::size_t count);

  /// The executor owning `client`: client_id % count.
  std::size_t executor_of(std::uint64_t client) const;

  void add_outage(ExecutorOutage outage);

  /// Earliest time >= t at which every executor is healthy ("the leader node
  /// halts dispatching tasks until all executors have pinged it with a
  /// healthy status-code").
  VirtualTime next_all_healthy(VirtualTime t) const;

  void record_task(std::size_t executor);

 private:
  std::size_t count_;
  std::vector<ExecutorOutage> outages_;
  // Per-executor task counters exported as sim.executor.<i>.tasks so a trace
  // viewer can spot partition skew (one hot executor stalling the leader).
  // Names are built once here — record_task runs per dispatched task, and a
  // per-call std::string materialization was measurable in capacity runs.
  std::vector<obs::CachedCounter> task_counters_;
  std::vector<std::string> task_counter_names_;
};

}  // namespace flint::sim
