#include "flint/fl/run_core.h"

#include <algorithm>
#include <unordered_map>

#include "flint/rpc/leader.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace flint::fl {

namespace {

/// util::derive_stream() stream id reserved for the server-side Rng; task
/// ids use their own id space, so this keeps the server stream disjoint from
/// every per-task stream.
constexpr std::uint64_t kServerRngStreamId = 0x5EB0E15EED5ull;

/// Availability cohort of a client: the fraction of the trace horizon its
/// windows cover. `rare` < 5%, `regular` < 50%, `always-on` otherwise —
/// the axis Figure 2's diurnal curve makes decision-relevant (a model that
/// only ever trains on always-on devices is the bias §3.2 warns about).
enum class AvailabilityCohort : std::uint32_t { kRare = 0, kRegular = 1, kAlwaysOn = 2 };

/// Validate the parts of the config every runner needs.
const RunInputs& validated(const RunInputs& inputs) {
  FLINT_CHECK_MSG(inputs.trace != nullptr || inputs.window_stream != nullptr,
                  "run needs an availability trace or a window stream");
  FLINT_CHECK_MSG(inputs.trace == nullptr || inputs.window_stream == nullptr,
                  "set either a materialized trace or a window stream, not both");
  FLINT_CHECK_MSG(inputs.catalog != nullptr, "run needs a device catalog");
  FLINT_CHECK_MSG(inputs.bandwidth != nullptr, "run needs a bandwidth model");
  if (inputs.model_free) {
    FLINT_CHECK_MSG(inputs.client_example_counts != nullptr || inputs.dataset != nullptr ||
                        static_cast<bool>(inputs.example_count_fn),
                    "model-free run needs client example counts, a dataset, or a count fn");
  } else {
    FLINT_CHECK_MSG(inputs.model_template != nullptr, "run needs a model template");
    FLINT_CHECK_MSG(inputs.dataset != nullptr, "run needs a federated dataset");
  }
  FLINT_CHECK_GT(inputs.max_rounds, std::uint64_t{0});
  FLINT_CHECK_FINITE(inputs.server_lr);
  FLINT_CHECK_GT(inputs.server_lr, 0.0);
  FLINT_CHECK_FINITE(inputs.server_momentum);
  FLINT_CHECK_GE(inputs.server_momentum, 0.0);
  FLINT_CHECK_LT(inputs.server_momentum, 1.0);
  FLINT_CHECK_FINITE(inputs.max_virtual_s);
  FLINT_CHECK_GT(inputs.max_virtual_s, 0.0);
  FLINT_CHECK_FINITE(inputs.reparticipation_gap_s);
  FLINT_CHECK_GE(inputs.reparticipation_gap_s, 0.0);
  FLINT_CHECK_GT(inputs.threads, std::size_t{0});
  return inputs;
}

/// Classify every client the trace can offer: device tier from the catalog
/// profile of its (first-seen) device, availability cohort from how much of
/// the horizon its windows cover, executor from the pool's assignment.
void register_trace_clients(const RunInputs& inputs, sim::Leader& leader,
                            obs::ClientLedger& ledger) {
  const device::AvailabilityTrace& trace = *inputs.trace;
  double horizon = trace.horizon();
  struct Seen {
    std::size_t device_index = 0;
    double window_s = 0.0;
  };
  std::unordered_map<std::uint64_t, Seen> seen;
  for (const auto& w : trace.windows()) {
    auto [it, inserted] = seen.try_emplace(w.client_id);
    if (inserted) it->second.device_index = w.device_index;
    it->second.window_s += w.duration();
  }
  for (const auto& [client, info] : seen) {
    device::DeviceTier tier = device::tier_of(inputs.catalog->profile(info.device_index));
    double coverage = horizon > 0.0 ? info.window_s / horizon : 1.0;
    AvailabilityCohort cohort = coverage < 0.05   ? AvailabilityCohort::kRare
                                : coverage < 0.50 ? AvailabilityCohort::kRegular
                                                  : AvailabilityCohort::kAlwaysOn;
    ledger.register_client(client, static_cast<std::uint32_t>(tier),
                           static_cast<std::uint32_t>(cohort),
                           static_cast<std::uint32_t>(leader.executors().executor_of(client)));
  }
}

}  // namespace

std::vector<std::pair<std::uint64_t, double>> ParticipationPool::sorted_entries() const {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(keys_.size());
  for (std::uint32_t s = 0; s < keys_.size(); ++s) out.emplace_back(keys_.key_at(s), times_[s]);
  std::sort(out.begin(), out.end());
  return out;
}

RunCore::RunCore(const RunInputs& inputs, std::uint8_t algo)
    : in(validated(inputs)),
      telemetry_scope_(in.telemetry),
      // Arrivals come from the materialized trace or the lazy window stream —
      // exactly one is set (validated above); results are identical either way.
      leader(in.trace != nullptr ? sim::Leader(in.leader, *in.trace)
                                 : sim::Leader(in.leader, *in.window_stream)),
      durations(in.duration, *in.catalog, *in.bandwidth),
      trainers(in),
      server_opt(in.server_lr, in.server_momentum),
      server_rng(util::derive_stream(in.seed, kServerRngStreamId)),
      algo_(algo) {
  for (const auto& o : in.outages) leader.executors().add_outage(o);
  // Attribution: task completions are mirrored into the run's ledger. A
  // streaming run has no materialized trace to pre-classify from (and walking
  // the population would defeat the point), so its clients are registered
  // lazily on first task completion with unclassified labels; the accounting
  // totals still reconcile with SimMetrics.
  if (in.collect_ledger) {
    if (in.trace != nullptr) register_trace_clients(in, leader, ledger_);
    leader.metrics().attach_ledger(&ledger_);
  }
  if (!in.model_free) {
    params = in.model_template->get_flat_parameters();
    eval_model_ = in.model_template->clone();
  }
}

std::size_t RunCore::examples_of(std::uint64_t client_id) const {
  if (in.dataset != nullptr && in.dataset->contains(client_id))
    return in.dataset->client(client_id).size();
  if (in.client_example_counts != nullptr && client_id < in.client_example_counts->size())
    return (*in.client_example_counts)[client_id];
  if (in.example_count_fn) return in.example_count_fn(client_id);
  return 0;
}

std::optional<store::SimCheckpoint> RunCore::resume() {
  if (in.resume_from == nullptr) return std::nullopt;
  std::optional<store::SimCheckpoint> ckpt = in.resume_from->latest();
  if (!ckpt.has_value()) {
    FLINT_LOG_INFO << "resume requested but no usable checkpoint in "
                   << in.resume_from->dir() << "; starting fresh";
    return std::nullopt;
  }
  const store::SimCheckpoint& c = *ckpt;
  FLINT_CHECK_MSG(c.algo == algo_, "checkpoint algorithm " << static_cast<int>(c.algo)
                                                           << " does not match this runner ("
                                                           << static_cast<int>(algo_) << ")");
  FLINT_CHECK_MSG(c.run_seed == in.seed,
                  "checkpoint seed " << c.run_seed << " does not match run seed " << in.seed
                                     << "; refusing to splice lineages");
  FLINT_LOG_INFO << "resuming from checkpoint round " << c.round << " at t=" << c.virtual_time_s
                 << "s (resume #" << c.resume_count + 1 << ")";

  if (!in.model_free) {
    FLINT_CHECK_EQ(c.model_parameters.size(), params.size());
    params = c.model_parameters;
  }
  server_opt.restore_velocity(c.server_velocity);
  if (!c.server_rng_state.empty()) server_rng.deserialize_state(c.server_rng_state);
  task_ids = c.next_task_id;
  participation.restore(c.last_participation);
  std::vector<sim::Arrival> requeued;
  requeued.reserve(c.requeued.size());
  for (const auto& a : c.requeued)
    requeued.push_back({a.time, a.client_id, static_cast<std::size_t>(a.device_index),
                        a.window_end});
  leader.arrivals().restore(static_cast<std::size_t>(c.arrival_cursor), requeued);
  leader.restore(c);
  // Only the counters are restored: the classifications registered at
  // construction are kept.
  if (in.collect_ledger) {
    for (const auto& a : c.client_accounts) {
      obs::ClientLedgerEntry e;
      e.client_id = a.client_id;
      e.tasks_succeeded = a.tasks_succeeded;
      e.tasks_interrupted = a.tasks_interrupted;
      e.tasks_stale = a.tasks_stale;
      e.tasks_failed = a.tasks_failed;
      e.compute_s = a.compute_s;
      e.wasted_compute_s = a.wasted_compute_s;
      e.bytes_down = a.bytes_down;
      e.bytes_up = a.bytes_up;
      ledger_.restore_account(e);
    }
  }
  for (const auto& e : c.eval_curve)
    result.eval_curve.push_back({e.time, e.round, e.metric, e.train_loss});
  result.resumed_from_round = c.round;
  resume_count = c.resume_count + 1;
  result.resume_count = resume_count;
  return ckpt;
}

StartedTask RunCore::start_task(const sim::Arrival& arrival, sim::VirtualTime dispatch_t,
                                std::uint64_t model_version, std::size_t examples) {
  if (auto* c = dispatched_counter_.resolve("fl.tasks_dispatched")) c->add(1);
  // Duration randomness comes from the task's own derived stream, keyed by
  // the id this task is about to take — a shared Rng here would make the
  // draw order (and thus every duration) depend on thread timing.
  util::Rng dur_rng = util::derive_stream(in.seed, task_ids, kRngStreamDuration);
  auto dur = durations.sample(arrival.device_index, examples, dur_rng);
  StartedTask task;
  task.spec = {task_ids++,    arrival.client_id, arrival.device_index,
               model_version, dispatch_t,        dur.compute_s,
               dur.comm_s,    examples,          in.duration.update_bytes};
  task.window_end = arrival.window_end;
  task.finish = dispatch_t + dur.total_s();
  task.interrupted = task.finish > arrival.window_end;
  if (task.interrupted) {
    task.finish = arrival.window_end;
    task.spent_compute_s =
        std::min(dur.compute_s, std::max(0.0, arrival.window_end - dispatch_t));
  } else {
    task.spent_compute_s = dur.compute_s;
  }
  leader.metrics().on_task_started();
  leader.executors().record_task(leader.executors().executor_of(arrival.client_id));
  participation.record(arrival.client_id, dispatch_t);
  return task;
}

void RunCore::finish_task(const StartedTask& task, sim::TaskOutcome outcome) {
  sim::TaskResult tr;
  tr.spec = task.spec;
  tr.outcome = outcome;
  tr.finish_time = task.finish;
  tr.spent_compute_s = task.spent_compute_s;
  leader.metrics().on_task_finished(tr);
}

std::optional<double> RunCore::evaluate() {
  if (in.model_free || in.test == nullptr) return std::nullopt;
  FLINT_TRACE_SPAN("fl.evaluate", "fl");
  eval_model_->set_flat_parameters(params);
  return data::evaluate_examples(*eval_model_, *in.test, in.domain, in.dense_dim,
                                 trainers.pool());
}

void RunCore::fill_checkpoint(store::SimCheckpoint& ckpt) {
  ckpt.run_seed = in.seed;
  ckpt.algo = algo_;
  ckpt.resume_count = resume_count;
  ckpt.server_velocity = server_opt.velocity();
  ckpt.server_rng_state = server_rng.serialize_state();
  ckpt.next_task_id = task_ids;
  ckpt.arrival_cursor = leader.arrivals().cursor();
  for (const auto& a : leader.arrivals().requeued_snapshot())
    ckpt.requeued.push_back(
        {a.time, a.client_id, static_cast<std::uint64_t>(a.device_index), a.window_end});
  ckpt.last_participation = participation.sorted_entries();
  ckpt.metrics = leader.metrics().snapshot();
  for (const auto& e : result.eval_curve)
    ckpt.eval_curve.push_back({e.time, e.round, e.metric, e.train_loss});
  if (!in.collect_ledger) return;
  // Per-client accounts sorted by client id, skipping clients with no
  // activity yet: they exist only as registrations, which the resumed run
  // re-derives from the trace.
  for (std::uint32_t s = 0; s < ledger_.client_count(); ++s) {
    obs::ClientLedgerEntry e = ledger_.entry_at(s);
    if (e.tasks_finished() == 0 && e.compute_s == 0.0 && e.bytes_down == 0) continue;
    ckpt.client_accounts.push_back({e.client_id, e.tasks_succeeded, e.tasks_interrupted,
                                    e.tasks_stale, e.tasks_failed, e.compute_s,
                                    e.wasted_compute_s, e.bytes_down, e.bytes_up});
  }
  std::sort(ckpt.client_accounts.begin(), ckpt.client_accounts.end(),
            [](const auto& a, const auto& b) { return a.client_id < b.client_id; });
}

void RunCore::close_round(std::uint64_t round, sim::VirtualTime start, sim::VirtualTime end,
                          std::size_t aggregated, double mean_staleness,
                          const std::function<void(store::SimCheckpoint&)>& fill_section) {
  leader.metrics().on_round({round, start, end, aggregated, mean_staleness});
  if (auto* c = rounds_counter_.resolve("fl.rounds")) c->add(1);
  if (auto* g = round_gauge_.resolve("fl.round")) g->set(static_cast<double>(round));
  if (auto* h = round_duration_hist_.resolve("fl.round_duration_s", 0.0, 7200.0, 48))
    h->record(end - start);
  if (in.eval_every_rounds > 0 && round % in.eval_every_rounds == 0)
    if (std::optional<double> metric = evaluate())
      result.eval_curve.push_back({end, round, *metric, 0.0});
  leader.on_aggregation(round, params, leader.metrics().tasks_succeeded(),
                        [&](store::SimCheckpoint& ckpt) {
                          fill_checkpoint(ckpt);
                          if (fill_section) fill_section(ckpt);
                        });
  if (in.round_hook) in.round_hook(round);
}

RunResult RunCore::finish(std::uint64_t rounds, sim::VirtualTime virtual_duration_s) {
  result.rounds = rounds;
  result.virtual_duration_s = virtual_duration_s;
  if (std::optional<double> metric = evaluate()) {
    result.final_metric = *metric;
    if (result.eval_curve.empty() || result.eval_curve.back().round != rounds)
      result.eval_curve.push_back({virtual_duration_s, rounds, *metric, 0.0});
  }
  result.final_parameters = std::move(params);
  result.metrics = leader.metrics();
  if (in.collect_ledger) {
    leader.metrics().attach_ledger(nullptr);
    result.ledger = ledger_.summary();
    // The metrics copy in the result must not carry a pointer to this run's
    // ledger, which dies with the RunCore.
    result.metrics.attach_ledger(nullptr);
  }
  if (in.telemetry != nullptr) {
    // The snapshot must hold the executors' metrics up to this point, not up
    // to their last periodic heartbeat.
    if (in.rpc_leader != nullptr) in.rpc_leader->collect_telemetry();
    in.telemetry->snapshot_now();
    if (in.telemetry->config().metrics_enabled) result.telemetry = in.telemetry->metrics().snapshot();
  }
  return std::move(result);
}

}  // namespace flint::fl
