#include "flint/sim/scheduler.h"

#include "flint/util/check.h"

namespace flint::sim {

ArrivalScheduler::ArrivalScheduler(const device::AvailabilityTrace& trace) : trace_(&trace) {}

ArrivalScheduler::ArrivalScheduler(device::WindowStream& stream) : stream_(&stream) {}

const device::AvailabilityWindow* ArrivalScheduler::peek_window() {
  if (trace_ != nullptr) {
    const auto& windows = trace_->windows();
    return cursor_ < windows.size() ? &windows[cursor_] : nullptr;
  }
  if (!lookahead_.has_value() && !stream_exhausted_) {
    lookahead_ = stream_->next();
    if (!lookahead_.has_value()) stream_exhausted_ = true;
  }
  return lookahead_.has_value() ? &*lookahead_ : nullptr;
}

void ArrivalScheduler::pop_window() {
  ++cursor_;
  lookahead_.reset();
}

std::optional<Arrival> ArrivalScheduler::trace_candidate(VirtualTime t) {
  while (const auto* w = peek_window()) {
    if (w->end <= t) {
      pop_window();  // window fully in the past: consume silently
      continue;
    }
    return Arrival{std::max<VirtualTime>(w->start, t), w->client_id, w->device_index, w->end};
  }
  return std::nullopt;
}

std::optional<Arrival> ArrivalScheduler::next(VirtualTime t) {
  FLINT_CHECK_FINITE(t);
  // Pick latency is the leader's per-task scheduling cost (§3.4's "priority
  // queue-based task scheduler"); it bounds dispatch throughput.
  obs::LatencyTimer timer(pick_latency_, "sim.pick_latency_us", 0.0, 50.0, 50);
  if (auto* c = picks_counter_.resolve("sim.scheduler_picks")) c->add(1);
  // Drop requeued arrivals whose window has closed.
  while (!requeued_.empty() && requeued_.top().window_end <= t) requeued_.pop();

  std::optional<Arrival> picked;
  std::optional<Arrival> from_trace = trace_candidate(t);
  if (!requeued_.empty()) {
    VirtualTime rt = std::max(requeued_.top().time, t);
    if (!from_trace.has_value() || rt <= from_trace->time) {
      Requeued r = requeued_.pop();
      picked = Arrival{rt, r.client_id, r.device_index, r.window_end};
    }
  }
  if (!picked.has_value() && from_trace.has_value()) {
    pop_window();  // consume the source window
    picked = from_trace;
  }
  if (picked.has_value()) {
    // Priority order: arrivals are delivered at or after the query time and
    // strictly inside their availability window.
    FLINT_CHECK_GE(picked->time, t);
    FLINT_CHECK_LT(picked->time, picked->window_end);
  }
  return picked;
}

std::optional<VirtualTime> ArrivalScheduler::peek_time(VirtualTime t) {
  while (!requeued_.empty() && requeued_.top().window_end <= t) requeued_.pop();
  std::optional<Arrival> from_trace = trace_candidate(t);
  std::optional<VirtualTime> best;
  if (from_trace.has_value()) best = from_trace->time;
  if (!requeued_.empty()) {
    VirtualTime rt = std::max(requeued_.top().time, t);
    if (!best.has_value() || rt < *best) best = rt;
  }
  return best;
}

void ArrivalScheduler::requeue(const Arrival& arrival, VirtualTime retry_time) {
  FLINT_CHECK_FINITE(retry_time);
  FLINT_CHECK_GE(retry_time, arrival.time);
  if (retry_time >= arrival.window_end) return;  // nothing left of the window
  requeued_.push({retry_time, 0, arrival.client_id, arrival.device_index, arrival.window_end});
}

std::vector<store::CheckpointRequeuedArrival> ArrivalScheduler::requeued() const {
  std::vector<store::CheckpointRequeuedArrival> out;
  out.reserve(requeued_.size());
  for (const Requeued& r : requeued_.entries())
    out.push_back({r.time, r.client_id, r.device_index, r.window_end});
  return out;
}

void ArrivalScheduler::restore(std::size_t cursor,
                               const std::vector<store::CheckpointRequeuedArrival>& requeued) {
  if (trace_ != nullptr) {
    FLINT_CHECK_LE(cursor, trace_->windows().size());
    cursor_ = cursor;
  } else {
    // A stream only moves forward: replay (discard) windows up to the
    // checkpoint cursor. Restoring backwards would need a fresh stream.
    FLINT_CHECK_GE(cursor, cursor_);
    while (cursor_ < cursor) {
      FLINT_CHECK_MSG(peek_window() != nullptr, "restore cursor past end of window stream");
      pop_window();
    }
  }
  // Numbering the snapshot (pop) order afresh keeps the pop order, and later
  // retries get larger seqs, as in the uninterrupted run. No retry lies
  // before virtual time 0.
  std::vector<Requeued> entries(requeued.size());
  for (std::size_t i = 0; i < requeued.size(); ++i) {
    const store::CheckpointRequeuedArrival& a = requeued[i];
    entries[i] = {a.time, i, a.client_id, static_cast<std::size_t>(a.device_index), a.window_end};
  }
  requeued_.restore(std::move(entries), requeued.size(), 0.0);
}

}  // namespace flint::sim
