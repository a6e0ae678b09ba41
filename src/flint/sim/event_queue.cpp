#include "flint/sim/event_queue.h"

#include "flint/util/check.h"

namespace flint::sim {

std::uint64_t EventQueue::schedule(VirtualTime t, EventKind kind, std::uint64_t task_id) {
  FLINT_CHECK_FINITE(t);
  FLINT_CHECK_GE(t, now_);
  return heap_.push({t, 0, kind, task_id});
}

std::optional<Event> EventQueue::pop() {
  if (heap_.empty()) return std::nullopt;
  Event ev = heap_.pop();
  // Virtual-clock monotonicity: the heap can never yield an event earlier
  // than the last one popped (schedule() and restore() reject past times, so
  // a violation here means heap-order corruption).
  FLINT_CHECK_GE(ev.time, now_);
  now_ = ev.time;
  ++executed_;
  if (obs::Telemetry* telemetry = obs::current(); telemetry != nullptr) {
    telemetry->set_virtual_now(now_);
    if (auto* c = events_counter_.resolve("sim.events_executed")) c->add(1);
    if (auto* g = depth_gauge_.resolve("sim.queue_depth"))
      g->set(static_cast<double>(heap_.size()));
    telemetry->maybe_snapshot();
  }
  return ev;
}

void EventQueue::restore(VirtualTime now, std::vector<Event> events, std::uint64_t next_seq) {
  FLINT_CHECK_FINITE(now);
  FLINT_CHECK_GE(now, now_);
  heap_.restore(std::move(events), next_seq, now);
  now_ = now;
}

}  // namespace flint::sim
