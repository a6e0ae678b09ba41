// Discrete-event simulation kernel with a virtual clock. The experimental
// framework "reports results over a virtual time that's calculated
// independently of the underlying hardware clock" (§3.4); every FL runner is
// built on this queue.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "flint/obs/telemetry.h"

namespace flint::sim {

/// Virtual seconds since simulation start.
using VirtualTime = double;

/// Min-heap of timed callbacks. Ties are broken by insertion order, which
/// makes execution deterministic (the paper's async scheduler must "dispatch
/// them to workers in the correct order").
class EventQueue {
 public:
  /// Schedule `fn` at absolute virtual time `t` (must be >= now()).
  void schedule(VirtualTime t, std::function<void()> fn);

  /// Pop and run the earliest event, advancing the clock. Returns false when
  /// the queue is empty.
  bool step();

  /// Run until the queue is empty or `max_events` have executed.
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Set the clock to exactly t without executing anything. Every pending
  /// event must be at or after t. Checkpoint resume uses this to fast-forward
  /// to the snapshot's virtual time before re-scheduling restored events.
  void advance_to(VirtualTime t);

  VirtualTime now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    VirtualTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  VirtualTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // The pump is the simulator's hottest loop, so telemetry handles are cached
  // rather than looked up per event; without ambient telemetry the per-event
  // cost is one pointer load and branch.
  obs::CachedCounter events_counter_;
  obs::CachedGauge depth_gauge_;
};

}  // namespace flint::sim
