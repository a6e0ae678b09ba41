// Discrete-event simulation kernel with a virtual clock. The experimental
// framework "reports results over a virtual time that's calculated
// independently of the underlying hardware clock" (§3.4); the async runner
// pumps this queue.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flint/obs/telemetry.h"
#include "flint/sim/time_heap.h"

namespace flint::sim {

/// What a popped event asks its runner to do.
enum class EventKind : std::uint8_t {
  kTaskEnd,   ///< the in-flight task `task_id` completes or is cut off
  kPumpWake,  ///< retry dispatching: an arrival is due or the gate reopens
};

/// One pending event. Plain data, so a checkpoint records it as it is.
struct Event {
  VirtualTime time = 0.0;
  std::uint64_t seq = 0;  ///< insertion order; breaks time ties first in, first out
  EventKind kind = EventKind::kTaskEnd;
  std::uint64_t task_id = 0;  ///< kTaskEnd only
};

/// Time-ordered events and the virtual clock they advance; the runner that
/// pops an event handles it.
class EventQueue {
 public:
  /// Schedule an event at absolute virtual time `t` (must be >= now()).
  /// Returns the seq it was given.
  std::uint64_t schedule(VirtualTime t, EventKind kind, std::uint64_t task_id = 0);

  /// Pop the earliest event and advance the clock to its time; nullopt when
  /// the queue is empty. Handlers may schedule further events.
  std::optional<Event> pop();

  /// Checkpoint resume: set the clock to `now` and replace the pending events
  /// with `events`, each keeping its seq (TimeHeap::restore checks them).
  void restore(VirtualTime now, std::vector<Event> events, std::uint64_t next_seq);

  VirtualTime now() const { return now_; }
  /// The seq the next schedule() assigns; a checkpoint records it.
  std::uint64_t next_seq() const { return heap_.next_seq(); }
  std::uint64_t executed() const { return executed_; }

 private:
  TimeHeap<Event> heap_;
  VirtualTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  // The pump is the simulator's hottest loop, so telemetry handles are cached
  // rather than looked up per event; without ambient telemetry the per-event
  // cost is one pointer load and branch.
  obs::CachedCounter events_counter_;
  obs::CachedGauge depth_gauge_;
};

}  // namespace flint::sim
