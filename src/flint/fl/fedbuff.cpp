#include "flint/fl/fedbuff.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>

#include "flint/fl/run_core.h"
#include "flint/obs/telemetry.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace flint::fl {

namespace {

/// One in-flight task: its dispatch-time fate plus the local update —
/// computed eagerly at dispatch on the serial path, queued on the pool, or
/// leased to an rpc executor (`pending` abstracts all three). A succeeded
/// completion moves it to the fold list in virtual-time event order, and
/// aggregate() folds that list in order, so the reduction is deterministic.
struct InFlight : StartedTask {
  explicit InFlight(const StartedTask& started) : StartedTask(started) {}
  std::uint64_t seq = 0;  ///< its task-end event's queue seq (the checkpoint stamp)
  ClientUpdate update;
  PendingUpdate pending;
};

/// Whole-run mutable state, shared by the event handlers.
struct FedBuffState {
  explicit FedBuffState(const AsyncConfig& c)
      : config(&c),
        core(c.inputs, store::kCheckpointAlgoFedBuff),
        accumulator(core.in.model_free ? 1 : core.params.size()) {}

  const AsyncConfig* config;
  RunCore core;
  UpdateAccumulator accumulator;
  /// The buffer's model-full updates in completion order, with their
  /// staleness weights. aggregate() joins and folds them into `accumulator`
  /// (DESIGN.md §11), so it is empty whenever a checkpoint is cut.
  std::vector<BufferedUpdate> fold;
  /// Immutable copy of the params for in-flight training jobs. Workers train
  /// against the snapshot their task captured at dispatch, so aggregate()
  /// can mutate the params while clients are still training — exactly the
  /// async-staleness semantics the serial path simulates. Refreshed (copy,
  /// not mutation) after every server step; only maintained when a pool
  /// exists.
  std::shared_ptr<const std::vector<float>> params_snapshot;
  std::uint64_t version = 0;  ///< server model version (aggregations so far)
  std::unordered_set<std::uint64_t> busy;
  double staleness_sum = 0.0;  ///< over the current buffer
  sim::VirtualTime round_start = 0.0;
  /// The latest pump wake scheduled (all zero before the first) and whether
  /// it is still pending; at most one is. The checkpoint records the wake's
  /// time and seq even after it fired, so both are kept.
  sim::Event pump_wake{0.0, 0, sim::EventKind::kPumpWake, 0};
  bool pump_pending = false;
  bool done = false;
  sim::VirtualTime last_aggregation_time = 0.0;
  /// Tasks in flight by task id, the checkpoint's record order. Each has one
  /// pending kTaskEnd event, whose handler extracts it.
  std::map<std::uint64_t, InFlight> in_flight;

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
/// in-flight tasks. RunCore fills the base fields. Every stamp is a queue
/// seq, so a resume restores the queue as it was (DESIGN.md §12).
void fill_section(FedBuffState& s, store::SimCheckpoint& ckpt) {
  // A checkpoint is cut inside aggregate(), after the fold: the accumulator
  // is the only buffer state on disk.
  FLINT_CHECK_MSG(s.fold.empty(), "checkpoint cut with " << s.fold.size() << " updates unfolded");
  ckpt.has_fedbuff = true;
  store::CheckpointFedBuff& fb = ckpt.fedbuff;
  fb.accumulator_sum = s.accumulator.sum();
  fb.accumulator_weight_sum = s.accumulator.weight_sum();
  fb.accumulator_count = s.accumulator.count();
  fb.staleness_sum = s.staleness_sum;
  fb.round_start = s.round_start;
  fb.last_aggregation_time = s.last_aggregation_time;
  fb.pump_scheduled = s.pump_pending;
  fb.pump_time = s.pump_wake.time;
  fb.pump_stamp = s.pump_wake.seq;
  fb.next_stamp = s.core.leader.queue().next_seq();
  fb.in_flight.reserve(s.in_flight.size());
  for (auto& [id, task] : s.in_flight) {
    // Join a still-pending update now: it is a pure function of the
    // dispatch-time snapshot, so materializing it early cannot change it —
    // the completion handler will simply find it already joined.
    if (task.pending.valid()) task.update = task.pending.get();
    const sim::TaskSpec& spec = task.spec;
    fb.in_flight.push_back({spec.task_id, spec.client_id, spec.device_index, spec.model_version,
                            spec.dispatch_time, spec.compute_s, spec.comm_s, spec.examples,
                            spec.update_bytes, task.spent_compute_s, task.window_end, task.finish,
                            task.interrupted, task.seq, task.update.weight,
                            task.update.train.delta});
  }
}

void aggregate(FedBuffState& s) {
  // The training the fold may wait for is not aggregation time, so it runs
  // before the span opens.
  fold_in_order(s.fold, s.accumulator);
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
                  << " running=" << s.in_flight.size();
  core.close_round(s.version, start, now, aggregated, mean_staleness,
                   [&s](store::SimCheckpoint& ckpt) { fill_section(s, ckpt); });
}

void on_task_end(FedBuffState& s, std::uint64_t task_id) {
  auto node = s.in_flight.extract(task_id);
  FLINT_CHECK_MSG(!node.empty(), "task-end event for task " << task_id << ", not in flight");
  InFlight& task = node.mapped();
  if (auto* g = s.in_flight_gauge.resolve("fl.tasks_in_flight"))
    g->set(static_cast<double>(s.in_flight.size()));
  s.busy.erase(task.spec.client_id);

  sim::TaskOutcome outcome = sim::TaskOutcome::kInterrupted;
  bool buffer_full = false;
  if (!task.interrupted) {
    // Staleness bound: a task can never have trained on a model version the
    // server hasn't produced yet (unsigned subtraction would wrap).
    FLINT_CHECK_GE(s.version, task.spec.model_version);
    std::uint64_t staleness = s.version - task.spec.model_version;
    if (s.done || staleness > s.config->max_staleness) {
      outcome = sim::TaskOutcome::kStale;
      // Never folded, but still joined, so no task outlives its completion
      // event and the training counters match at every thread count.
      if (task.pending.valid()) (void)task.pending.get();
    } else {
      outcome = sim::TaskOutcome::kSucceeded;
      // Staleness distribution (Figure 8's control variable) as a live
      // histogram, bucketed per model-version lag.
      if (auto* h = s.staleness_hist.resolve(
              "fl.staleness", 0.0, static_cast<double>(s.config->max_staleness) + 1.0,
              std::min<std::size_t>(s.config->max_staleness + 1, 64)))
        h->record(static_cast<double>(staleness));
      if (!s.core.in.model_free) {
        // Recorded, not joined: completions run in virtual-time order at any
        // thread count, and aggregate() folds the list in that order.
        double w = s.config->staleness_weighting ? staleness_weight(staleness) : 1.0;
        s.fold.push_back({task.pending.valid() ? std::move(task.pending)
                                               : PendingUpdate::ready(std::move(task.update)),
                          w});
      } else {
        // Model-free mode still tracks buffer occupancy with unit weights.
        static thread_local std::vector<float> kZero{0.0f};
        s.accumulator.add(kZero, 1.0);
      }
      s.staleness_sum += static_cast<double>(staleness);
      std::size_t buffered = s.accumulator.count() + s.fold.size();
      if (auto* g = s.buffer_gauge.resolve("fl.buffer_occupancy"))
        g->set(static_cast<double>(buffered));
      buffer_full = buffered >= s.config->buffer_size;
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
  StartedTask started = s.core.start_task(arrival, now, s.version, examples);
  auto [it, inserted] = s.in_flight.try_emplace(started.spec.task_id, started);
  FLINT_CHECK_MSG(inserted, "task id " << it->first << " dispatched twice");
  InFlight& task = it->second;
  s.busy.insert(arrival.client_id);
  if (auto* g = s.in_flight_gauge.resolve("fl.tasks_in_flight"))
    g->set(static_cast<double>(s.in_flight.size()));
  if (!task.interrupted && !in.model_free) {
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
    task.pending = s.core.trainers.submit_update(in, client_data, param_view, local,
                                                 task.spec.task_id, arrival.client_id,
                                                 s.version, s.config->buffer_size, snapshot);
  }
  task.seq = s.core.leader.queue().schedule(task.finish, sim::EventKind::kTaskEnd,
                                            task.spec.task_id);
}

/// Schedule one pump wake at `when` unless one is already pending.
void schedule_pump(FedBuffState& s, sim::VirtualTime when) {
  if (s.pump_pending) return;
  s.pump_pending = true;
  s.pump_wake.time = when;
  s.pump_wake.seq = s.core.leader.queue().schedule(when, sim::EventKind::kPumpWake);
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

  while (s.in_flight.size() < s.config->max_concurrency) {
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
/// fields): the buffer, the in-flight tasks and the pending events, each
/// under the seq it had when the checkpoint was written.
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
  // The done flag is never serialized: it is re-derived from this run's
  // limits, so a resume with a larger max_rounds continues the lineage.
  s.done = s.version >= in.max_rounds || c.virtual_time_s >= in.max_virtual_s;

  std::vector<sim::Event> events;
  events.reserve(fb.in_flight.size() + 1);
  for (const auto& rec : fb.in_flight) {
    sim::TaskSpec spec{rec.task_id,       rec.client_id,   static_cast<std::size_t>(rec.device_index),
                       rec.model_version, rec.dispatch_time, rec.compute_s,
                       rec.comm_s,        static_cast<std::size_t>(rec.examples), rec.update_bytes};
    auto [it, inserted] = s.in_flight.try_emplace(
        rec.task_id,
        StartedTask{spec, rec.finish_time, rec.window_end, rec.spent_compute_s, rec.interrupted});
    FLINT_CHECK_MSG(inserted, "checkpoint holds in-flight task " << rec.task_id << " twice");
    InFlight& task = it->second;
    task.seq = rec.stamp;
    // The checkpoint carries the materialized update (fill_section joins
    // in-flight workers before serializing), so no re-training is needed.
    task.update.weight = rec.update_weight;
    task.update.train.delta = rec.update_delta;
    s.busy.insert(rec.client_id);
    events.push_back({rec.finish_time, rec.stamp, sim::EventKind::kTaskEnd, rec.task_id});
  }
  s.pump_wake = {fb.pump_time, fb.pump_stamp, sim::EventKind::kPumpWake, 0};
  s.pump_pending = fb.pump_scheduled;
  if (s.pump_pending) events.push_back(s.pump_wake);
  s.core.leader.queue().restore(c.virtual_time_s, std::move(events), fb.next_stamp);
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
  while (std::optional<sim::Event> ev = queue.pop()) {
    switch (ev->kind) {
      case sim::EventKind::kTaskEnd:
        on_task_end(s, ev->task_id);
        break;
      case sim::EventKind::kPumpWake:
        s.pump_pending = false;
        pump(s);
        break;
    }
  }
  // The updates of a buffer the trace ran out before filling are never
  // folded, but still joined, like stale ones.
  for (BufferedUpdate& b : s.fold) (void)b.pending.get();
  s.fold.clear();
  s.core.result.events_executed = queue.executed();
  return s.core.finish(s.version, s.version > 0 ? s.last_aggregation_time : queue.now());
}

}  // namespace flint::fl
