#include "flint/fl/fedavg.h"

#include <algorithm>

#include "flint/fl/client_selection.h"
#include "flint/fl/run_core.h"
#include "flint/obs/telemetry.h"
#include "flint/util/check.h"

namespace flint::fl {

RunResult run_fedavg(const SyncConfig& config) {
  FLINT_CHECK_GT(config.cohort_size, std::size_t{0});
  FLINT_CHECK_FINITE(config.round_deadline_s);
  FLINT_CHECK_GT(config.round_deadline_s, 0.0);
  RunCore core(config.inputs, store::kCheckpointAlgoFedAvg);
  const RunInputs& in = core.in;
  sim::Leader& leader = core.leader;

  sim::VirtualTime t = 0.0;
  std::uint64_t round = 0;
  if (auto resume = core.resume()) {
    round = resume->round;
    t = resume->virtual_time_s;
  }

  while (round < in.max_rounds && t < in.max_virtual_s) {
    t = leader.dispatch_gate(t);
    std::size_t dispatch_n = overcommitted_size(config.cohort_size, config.overcommit);
    auto exclude = [&](std::uint64_t client) -> std::optional<sim::VirtualTime> {
      auto when = core.participation.last(client);
      if (!when.has_value()) return std::nullopt;
      return *when + in.reparticipation_gap_s;  // <= now means eligible
    };
    auto cohort = select_cohort(leader.arrivals(), t, dispatch_n, exclude, config.cohort_wait_s);
    if (cohort.empty()) {
      auto next_time = leader.arrivals().peek_time(t);
      if (!next_time.has_value()) break;  // trace exhausted
      t = *next_time;
      continue;
    }

    sim::VirtualTime round_start = t;
    sim::VirtualTime deadline = round_start + config.round_deadline_s;
    std::vector<StartedTask> tasks;
    std::vector<sim::Arrival> rejoining;
    for (const auto& arr : cohort) {
      std::size_t examples = core.examples_of(arr.client_id);
      if (examples == 0) continue;
      StartedTask task = core.start_task(
          arr, std::max<sim::VirtualTime>(arr.time, round_start), round, examples);
      // The device stays in its availability window after the task; re-offer
      // the window remainder so it can participate in later rounds.
      if (!task.interrupted && task.finish < arr.window_end) {
        sim::Arrival rejoin = arr;
        rejoin.time = task.finish;
        rejoining.push_back(rejoin);
      }
      tasks.push_back(task);
    }
    for (const auto& rejoin : rejoining)
      leader.arrivals().requeue(rejoin, rejoin.time);
    if (tasks.empty()) {
      t = round_start + 1.0;
      continue;
    }
    std::sort(tasks.begin(), tasks.end(),
              [](const StartedTask& a, const StartedTask& b) { return a.finish < b.finish; });

    // Decide fates: the first cohort_size on-time completions succeed;
    // later completions are stragglers (stale); window-cut tasks are
    // interrupted.
    std::vector<const StartedTask*> successes;
    sim::VirtualTime round_end = deadline;
    for (const auto& task : tasks) {
      sim::TaskOutcome outcome = sim::TaskOutcome::kStale;
      if (task.interrupted) {
        outcome = sim::TaskOutcome::kInterrupted;
      } else if (task.finish <= deadline && successes.size() < config.cohort_size) {
        outcome = sim::TaskOutcome::kSucceeded;
        successes.push_back(&task);
        if (successes.size() == config.cohort_size) round_end = task.finish;
      }
      core.finish_task(task, outcome);
    }

    if (successes.empty()) {
      // Nothing aggregated this round; move past the deadline and retry.
      t = deadline;
      continue;
    }

    ++round;
    // The sync runner drives virtual time by hand (no EventQueue), so it
    // publishes the clock itself: round_start before the span opens and
    // round_end before it closes, giving the span its virtual duration.
    obs::advance_virtual_time(round_start);
    FLINT_TRACE_SPAN("fedavg.round", "fl");
    if (!in.model_free) {
      UpdateAccumulator acc(core.params.size());
      LocalTrainConfig local = in.local;
      local.lr = in.client_lr.at(round - 1);
      std::size_t participants = successes.size();
      // Fan the cohort across whatever execution mode the run uses (serial /
      // thread pool / rpc executors), then fold in the fixed `successes`
      // order, so the accumulator sees identical updates on every mode.
      // `params` is only mutated after every pending update is folded.
      std::vector<BufferedUpdate> buffer;
      buffer.reserve(successes.size());
      for (const StartedTask* task : successes) {
        buffer.push_back({core.trainers.submit_update(
                              in, in.dataset->client(task->spec.client_id).examples,
                              core.params, local, task->spec.task_id, task->spec.client_id,
                              round, participants),
                          std::nullopt});
      }
      fold_in_order(buffer, acc);
      auto mean = acc.weighted_mean();
      core.server_opt.step(core.params, mean);
    }
    core.close_round(round, round_start, round_end, successes.size(), /*mean_staleness=*/0.0);
    t = round_end;
    obs::advance_virtual_time(round_end);  // closes the round span at round_end
  }

  return core.finish(round, t);
}

}  // namespace flint::fl
