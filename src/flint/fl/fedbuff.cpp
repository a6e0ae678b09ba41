#include "flint/fl/fedbuff.h"

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <unordered_set>

#include "flint/fl/run_core.h"
#include "flint/obs/telemetry.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace flint::fl {

namespace {

/// One in-flight task: its dispatch-time fate plus the local update —
/// computed eagerly at dispatch on the serial path, in flight on a pool
/// worker, or leased to an rpc executor (`pending` abstracts all three; the
/// completion handler consumes it in virtual-time event order and therefore
/// reduces deterministically).
struct InFlight : StartedTask {
  InFlight() = default;
  explicit InFlight(const StartedTask& started) : StartedTask(started) {}
  std::uint64_t stamp = 0;  ///< FedBuffState::next_stamp at schedule time
  ClientUpdate update;
  PendingUpdate pending;
};

/// Whole-run mutable state, shared by the event callbacks.
struct FedBuffState {
  explicit FedBuffState(const AsyncConfig& c)
      : config(&c),
        core(c.inputs, store::kCheckpointAlgoFedBuff),
        accumulator(core.in.model_free ? 1 : core.params.size()) {}

  const AsyncConfig* config;
  RunCore core;
  UpdateAccumulator accumulator;
  /// Immutable copy of the params for in-flight training jobs. Workers train
  /// against the snapshot their task captured at dispatch, so aggregate()
  /// can mutate the params while clients are still training — exactly the
  /// async-staleness semantics the serial path simulates. Refreshed (copy,
  /// not mutation) after every server step; only maintained when a pool
  /// exists.
  std::shared_ptr<const std::vector<float>> params_snapshot;
  std::uint64_t version = 0;  ///< server model version (aggregations so far)
  std::size_t running = 0;
  std::unordered_set<std::uint64_t> busy;
  double staleness_sum = 0.0;  ///< over the current buffer
  sim::VirtualTime round_start = 0.0;
  bool pump_scheduled = false;
  sim::VirtualTime pump_time = 0.0;  ///< when the scheduled pump retry fires
  std::uint64_t pump_stamp = 0;      ///< its scheduling stamp
  bool done = false;
  sim::VirtualTime last_aggregation_time = 0.0;
  /// Scheduling stamp counter: every EventQueue::schedule() this runner makes
  /// takes the next stamp, mirroring the queue's FIFO tie-break for same-time
  /// events. Checkpointed per pending event so a resumed run can re-schedule
  /// them in the original relative order (DESIGN.md §12).
  std::uint64_t next_stamp = 0;
  /// Pending completion events by task id; the checkpoint serializes these so
  /// resume can rebuild the event queue.
  std::map<std::uint64_t, std::shared_ptr<InFlight>> in_flight;

  // Telemetry handles for the per-task hot path (single-threaded pump).
  obs::CachedHistogram staleness_hist;
  obs::CachedGauge buffer_gauge;
  obs::CachedGauge in_flight_gauge;
};

void pump(FedBuffState& s);

/// Re-copy the params the pool's in-flight jobs train against.
void refresh_snapshot(FedBuffState& s) {
  if (s.core.trainers.pool() != nullptr)
    s.params_snapshot = std::make_shared<const std::vector<float>>(s.core.params);
}

/// The async-runner checkpoint section: the buffer, the pump and the
/// in-flight tasks. RunCore fills the base fields.
void fill_section(FedBuffState& s, store::SimCheckpoint& ckpt) {
  ckpt.has_fedbuff = true;
  store::CheckpointFedBuff& fb = ckpt.fedbuff;
  fb.accumulator_sum = s.accumulator.sum();
  fb.accumulator_weight_sum = s.accumulator.weight_sum();
  fb.accumulator_count = s.accumulator.count();
  fb.staleness_sum = s.staleness_sum;
  fb.round_start = s.round_start;
  fb.last_aggregation_time = s.last_aggregation_time;
  fb.pump_scheduled = s.pump_scheduled;
  fb.pump_time = s.pump_time;
  fb.pump_stamp = s.pump_stamp;
  fb.next_stamp = s.next_stamp;
  fb.in_flight.reserve(s.in_flight.size());
  for (const auto& [id, task] : s.in_flight) {
    // Join a still-running worker now: the update is a pure function of the
    // dispatch-time snapshot, so materializing it early cannot change it —
    // the completion handler will simply find it already joined.
    if (task->pending.valid()) task->update = task->pending.get();
    store::CheckpointInFlightTask rec;
    rec.task_id = task->spec.task_id;
    rec.client_id = task->spec.client_id;
    rec.device_index = static_cast<std::uint64_t>(task->spec.device_index);
    rec.model_version = task->spec.model_version;
    rec.dispatch_time = task->spec.dispatch_time;
    rec.compute_s = task->spec.compute_s;
    rec.comm_s = task->spec.comm_s;
    rec.examples = static_cast<std::uint64_t>(task->spec.examples);
    rec.update_bytes = task->spec.update_bytes;
    rec.spent_compute_s = task->spent_compute_s;
    rec.window_end = task->window_end;
    rec.finish_time = task->finish;
    rec.interrupted = task->interrupted;
    rec.stamp = task->stamp;
    rec.update_weight = task->update.weight;
    rec.update_delta = task->update.train.delta;
    fb.in_flight.push_back(std::move(rec));
  }
}

void aggregate(FedBuffState& s) {
  FLINT_TRACE_SPAN("fedbuff.aggregate", "fl");
  RunCore& core = s.core;
  sim::VirtualTime now = core.leader.queue().now();
  double mean_staleness =
      s.accumulator.empty() ? 0.0
                            : s.staleness_sum / static_cast<double>(s.accumulator.count());
  // Every buffered update passed the staleness gate individually, so the
  // buffer mean must respect the configured bound too.
  FLINT_CHECK_LE(mean_staleness, static_cast<double>(s.config->max_staleness));
  std::size_t aggregated = s.accumulator.count();
  if (!core.in.model_free) {
    auto mean = s.accumulator.weighted_mean();
    core.server_opt.step(core.params, mean);
    refresh_snapshot(s);
  }
  s.accumulator.reset();
  s.staleness_sum = 0.0;
  ++s.version;
  sim::VirtualTime start = s.round_start;
  s.round_start = now;
  s.last_aggregation_time = now;
  if (s.version >= core.in.max_rounds || now >= core.in.max_virtual_s) s.done = true;
  FLINT_LOG_DEBUG << "fedbuff aggregation v=" << s.version << " t=" << now
                  << " running=" << s.running;
  core.close_round(s.version, start, now, aggregated, mean_staleness,
                   [&s](store::SimCheckpoint& ckpt) { fill_section(s, ckpt); });
}

void on_task_end(FedBuffState& s, InFlight& task) {
  s.in_flight.erase(task.spec.task_id);
  if (auto* g = s.in_flight_gauge.resolve("fl.tasks_in_flight"))
    g->set(static_cast<double>(s.in_flight.size()));
  --s.running;
  s.busy.erase(task.spec.client_id);

  sim::TaskOutcome outcome = sim::TaskOutcome::kInterrupted;
  bool buffer_full = false;
  if (!task.interrupted) {
    // Join the worker if the update is still in flight — also for updates
    // about to be discarded as stale, so no task outlives its completion
    // event. Completions run in virtual-time order, independent of thread
    // count, so the accumulator sees the same sequence as the serial path.
    if (task.pending.valid()) task.update = task.pending.get();
    // Staleness bound: a task can never have trained on a model version the
    // server hasn't produced yet (unsigned subtraction would wrap).
    FLINT_CHECK_GE(s.version, task.spec.model_version);
    std::uint64_t staleness = s.version - task.spec.model_version;
    if (s.done || staleness > s.config->max_staleness) {
      outcome = sim::TaskOutcome::kStale;
    } else {
      outcome = sim::TaskOutcome::kSucceeded;
      // Staleness distribution (Figure 8's control variable) as a live
      // histogram, bucketed per model-version lag.
      if (auto* h = s.staleness_hist.resolve(
              "fl.staleness", 0.0, static_cast<double>(s.config->max_staleness) + 1.0,
              std::min<std::size_t>(s.config->max_staleness + 1, 64)))
        h->record(static_cast<double>(staleness));
      if (!s.core.in.model_free) {
        double w = s.config->staleness_weighting ? staleness_weight(staleness) : 1.0;
        s.accumulator.add(task.update.train.delta, w);
      } else {
        // Model-free mode still tracks buffer occupancy with unit weights.
        static thread_local std::vector<float> kZero{0.0f};
        s.accumulator.add(kZero, 1.0);
      }
      s.staleness_sum += static_cast<double>(staleness);
      if (auto* g = s.buffer_gauge.resolve("fl.buffer_occupancy"))
        g->set(static_cast<double>(s.accumulator.count()));
      buffer_full = s.accumulator.count() >= s.config->buffer_size;
    }
  }
  s.core.finish_task(task, outcome);
  // The device stays available after a completed task; re-offer the window
  // remainder so it can participate again (subject to the cooldown gap).
  if (!task.interrupted && task.finish < task.window_end) {
    sim::Arrival rejoin{task.finish, task.spec.client_id, task.spec.device_index,
                        task.window_end};
    s.core.leader.arrivals().requeue(rejoin, task.finish);
  }
  // Aggregate only after this completion is fully recorded (metrics + rejoin
  // requeue): the checkpoint written inside aggregate() must snapshot a state
  // with no half-processed task, or a resume would lose the rejoin.
  if (buffer_full) aggregate(s);
  pump(s);
}

void dispatch(FedBuffState& s, const sim::Arrival& arrival, std::size_t examples) {
  FLINT_TRACE_SPAN("fedbuff.dispatch", "fl");
  const RunInputs& in = s.core.in;
  sim::VirtualTime now = s.core.leader.queue().now();
  auto task = std::make_shared<InFlight>(s.core.start_task(arrival, now, s.version, examples));
  task->stamp = s.next_stamp++;
  ++s.running;
  s.busy.insert(arrival.client_id);
  s.in_flight[task->spec.task_id] = task;
  if (auto* g = s.in_flight_gauge.resolve("fl.tasks_in_flight"))
    g->set(static_cast<double>(s.in_flight.size()));
  if (!task->interrupted && !in.model_free) {
    // The client trains against the global parameters as of dispatch time;
    // computing the update from a dispatch-time snapshot is semantically
    // identical to computing it at completion. On the pool path the snapshot
    // shared_ptr rides along as the keepalive; the serial and rpc paths read
    // the live params immediately.
    LocalTrainConfig local = in.local;
    local.lr = in.client_lr.at(s.version);
    const auto& client_data = in.dataset->client(arrival.client_id).examples;
    std::shared_ptr<const std::vector<float>> snapshot = s.params_snapshot;
    std::span<const float> param_view =
        snapshot != nullptr ? std::span<const float>(*snapshot)
                            : std::span<const float>(s.core.params);
    task->pending = s.core.trainers.submit_update(in, client_data, param_view, local,
                                                  task->spec.task_id, arrival.client_id,
                                                  s.version, s.config->buffer_size, snapshot);
  }
  s.core.leader.queue().schedule(task->finish, [&s, task] { on_task_end(s, *task); });
}

/// Schedule one pump retry at `when` unless one is already pending.
void schedule_pump(FedBuffState& s, sim::VirtualTime when) {
  if (s.pump_scheduled) return;
  s.pump_scheduled = true;
  s.pump_time = when;
  s.pump_stamp = s.next_stamp++;
  s.core.leader.queue().schedule(when, [&s] {
    s.pump_scheduled = false;
    pump(s);
  });
}

void pump(FedBuffState& s) {
  if (s.done) return;
  RunCore& core = s.core;
  sim::VirtualTime now = core.leader.queue().now();

  // Fault-tolerance gate: halt dispatching while any executor is unhealthy.
  sim::VirtualTime gate = core.leader.dispatch_gate(now);
  if (gate > now) {
    schedule_pump(s, gate);
    return;
  }

  while (s.running < s.config->max_concurrency) {
    auto next_time = core.leader.arrivals().peek_time(now);
    if (!next_time.has_value()) return;  // trace exhausted
    if (*next_time > now) {
      schedule_pump(s, *next_time);
      return;
    }
    auto arrival = core.leader.arrivals().next(now);
    FLINT_DCHECK(arrival.has_value());
    if (s.busy.count(arrival->client_id) > 0) {
      // Stale duplicate entry for a client that is mid-task: drop it. The
      // completion handler requeues a rejoin for the window remainder.
      continue;
    }
    auto when = core.participation.last(arrival->client_id);
    if (when.has_value()) {
      // Compute the cooldown lapse once and branch on it, so the retry time
      // is strictly in the future whenever we defer (deriving the condition
      // and the retry from different float expressions can disagree in the
      // last ulp and livelock the pump).
      sim::VirtualTime lapse = *when + core.in.reparticipation_gap_s;
      if (lapse > now) {
        core.leader.arrivals().requeue(*arrival, lapse);
        continue;
      }
    }
    std::size_t examples = core.examples_of(arrival->client_id);
    if (examples == 0) continue;
    dispatch(s, *arrival, examples);
  }
}

/// Restore the async-runner section of `c` (RunCore has restored the base
/// fields): the buffer, then the pending event set.
void restore(FedBuffState& s, const store::SimCheckpoint& c) {
  const RunInputs& in = s.core.in;
  FLINT_CHECK_MSG(c.has_fedbuff, "fedbuff checkpoint lacks the async-runner section");
  if (!in.model_free) refresh_snapshot(s);
  s.version = c.round;
  const store::CheckpointFedBuff& fb = c.fedbuff;
  s.accumulator.restore(fb.accumulator_sum, fb.accumulator_weight_sum,
                        static_cast<std::size_t>(fb.accumulator_count));
  s.staleness_sum = fb.staleness_sum;
  s.round_start = fb.round_start;
  s.last_aggregation_time = fb.last_aggregation_time;
  s.next_stamp = fb.next_stamp;
  // The done flag is never serialized: it is re-derived from this run's
  // limits, so a resume with a larger max_rounds continues the lineage.
  s.done = s.version >= in.max_rounds || c.virtual_time_s >= in.max_virtual_s;

  // Fast-forward the clock, then rebuild the pending event set in its
  // original scheduling (stamp) order so the queue's same-time tie-break
  // matches the uninterrupted run.
  s.core.leader.queue().advance_to(c.virtual_time_s);
  struct RestoredEvent {
    std::uint64_t stamp = 0;
    sim::VirtualTime when = 0.0;
    std::function<void()> fire;
  };
  std::vector<RestoredEvent> events;
  events.reserve(fb.in_flight.size() + 1);
  for (const auto& rec : fb.in_flight) {
    auto task = std::make_shared<InFlight>();
    task->spec.task_id = rec.task_id;
    task->spec.client_id = rec.client_id;
    task->spec.device_index = static_cast<std::size_t>(rec.device_index);
    task->spec.model_version = rec.model_version;
    task->spec.dispatch_time = rec.dispatch_time;
    task->spec.compute_s = rec.compute_s;
    task->spec.comm_s = rec.comm_s;
    task->spec.examples = static_cast<std::size_t>(rec.examples);
    task->spec.update_bytes = rec.update_bytes;
    task->spent_compute_s = rec.spent_compute_s;
    task->window_end = rec.window_end;
    task->finish = rec.finish_time;
    task->interrupted = rec.interrupted;
    task->stamp = rec.stamp;
    // The checkpoint carries the materialized update (fill_section joins
    // in-flight workers before serializing), so no re-training is needed.
    task->update.weight = rec.update_weight;
    task->update.train.delta = rec.update_delta;
    s.in_flight[rec.task_id] = task;
    s.busy.insert(rec.client_id);
    ++s.running;
    events.push_back({rec.stamp, rec.finish_time, [&s, task] { on_task_end(s, *task); }});
  }
  if (fb.pump_scheduled) {
    s.pump_scheduled = true;
    s.pump_time = fb.pump_time;
    s.pump_stamp = fb.pump_stamp;
    events.push_back({fb.pump_stamp, fb.pump_time, [&s] {
                        s.pump_scheduled = false;
                        pump(s);
                      }});
  }
  std::sort(events.begin(), events.end(),
            [](const RestoredEvent& a, const RestoredEvent& b) { return a.stamp < b.stamp; });
  for (auto& e : events) s.core.leader.queue().schedule(e.when, std::move(e.fire));
}

}  // namespace

RunResult run_fedbuff(const AsyncConfig& config) {
  FLINT_CHECK_GT(config.buffer_size, std::size_t{0});
  FLINT_CHECK_GT(config.max_concurrency, std::size_t{0});
  FedBuffState s(config);
  if (!s.core.in.model_free) refresh_snapshot(s);
  if (auto resume = s.core.resume()) restore(s, *resume);

  pump(s);
  // Drain: completions may still fire after `done` flips; they are counted
  // as stale and never re-pump (pump() no-ops when done).
  sim::EventQueue& queue = s.core.leader.queue();
  queue.run();
  s.core.result.events_executed = queue.executed();
  return s.core.finish(s.version, s.version > 0 ? s.last_aggregation_time : queue.now());
}

}  // namespace flint::fl
