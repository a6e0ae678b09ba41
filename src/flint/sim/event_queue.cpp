#include "flint/sim/event_queue.h"

#include "flint/util/check.h"

namespace flint::sim {

void EventQueue::schedule(VirtualTime t, std::function<void()> fn) {
  FLINT_CHECK_FINITE(t);
  FLINT_CHECK_GE(t, now_);
  heap_.push({t, next_seq_++, std::move(fn)});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // Copy out before pop so the callback can schedule new events freely.
  Event ev = heap_.top();
  heap_.pop();
  // Virtual-clock monotonicity: the heap can never yield an event earlier
  // than the last one executed (schedule() rejects past times, so a
  // violation here means heap-order corruption).
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
  ev.fn();
  return true;
}

void EventQueue::run(std::uint64_t max_events) {
  std::uint64_t budget = max_events;
  while (budget-- > 0 && step()) {
  }
}

void EventQueue::advance_to(VirtualTime t) {
  FLINT_CHECK_FINITE(t);
  FLINT_CHECK_GE(t, now_);
  if (!heap_.empty()) FLINT_CHECK_GE(heap_.top().time, t);
  now_ = t;
}

}  // namespace flint::sim
