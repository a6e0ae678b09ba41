#include <gtest/gtest.h>

#include "flint/sim/event_queue.h"
#include "flint/sim/executor.h"
#include "flint/sim/fault_injector.h"
#include "flint/sim/leader.h"
#include "flint/sim/scheduler.h"
#include "flint/sim/sim_metrics.h"
#include "flint/store/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

namespace flint::sim {
namespace {

// --------------------------------------------------------------- EventQueue

/// Pop every pending event, in order.
std::vector<Event> drain(EventQueue& q) {
  std::vector<Event> out;
  while (std::optional<Event> ev = q.pop()) out.push_back(*ev);
  return out;
}

std::vector<std::uint64_t> task_ids(const std::vector<Event>& events) {
  std::vector<std::uint64_t> ids;
  for (const Event& e : events) ids.push_back(e.task_id);
  return ids;
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  q.schedule(3.0, EventKind::kTaskEnd, 3);
  q.schedule(1.0, EventKind::kTaskEnd, 1);
  q.schedule(2.0, EventKind::kPumpWake);
  std::vector<Event> popped = drain(q);
  ASSERT_EQ(popped.size(), 3u);
  EXPECT_EQ(popped[0].task_id, 1u);
  EXPECT_EQ(popped[1].kind, EventKind::kPumpWake);
  EXPECT_EQ(popped[2].task_id, 3u);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  for (std::uint64_t id = 0; id < 5; ++id)
    EXPECT_EQ(q.schedule(1.0, EventKind::kTaskEnd, 10 + id), id);  // seq = insertion index
  std::vector<Event> popped = drain(q);
  EXPECT_EQ(task_ids(popped), (std::vector<std::uint64_t>{10, 11, 12, 13, 14}));
  for (std::uint64_t i = 0; i < popped.size(); ++i) EXPECT_EQ(popped[i].seq, i);
}

TEST(EventQueue, HandlersCanScheduleMore) {
  EventQueue q;
  q.schedule(0.0, EventKind::kPumpWake);
  std::vector<double> handled_at;
  while (std::optional<Event> ev = q.pop()) {
    handled_at.push_back(ev->time);
    if (ev->kind != EventKind::kPumpWake) continue;
    // A same-time event scheduled while handling pops right after, before the
    // wake scheduled later for t + 1.
    if (ev->time == 1.0) q.schedule(q.now(), EventKind::kTaskEnd, 99);
    if (ev->time < 4.0) q.schedule(q.now() + 1.0, EventKind::kPumpWake);
  }
  EXPECT_EQ(handled_at, (std::vector<double>{0.0, 1.0, 1.0, 2.0, 3.0, 4.0}));
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
  EXPECT_EQ(q.next_seq(), 6u);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  q.schedule(5.0, EventKind::kPumpWake);
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_THROW(q.schedule(1.0, EventKind::kPumpWake), util::CheckError);
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::quiet_NaN(), EventKind::kPumpWake),
               util::CheckError);
}

TEST(EventQueue, RestoredQueuePopsIdenticalSequence) {
  // The original: tasks and wakes with time ties, two of them already popped.
  EventQueue a;
  const double times[] = {2.0, 7.0, 4.0, 4.0, 7.0, 1.0, 4.0, 9.0};
  std::vector<Event> scheduled;
  for (std::uint64_t i = 0; i < std::size(times); ++i) {
    EventKind kind = i % 3 == 0 ? EventKind::kPumpWake : EventKind::kTaskEnd;
    std::uint64_t id = kind == EventKind::kTaskEnd ? 100 + i : 0;
    scheduled.push_back({times[i], a.schedule(times[i], kind, id), kind, id});
  }
  ASSERT_TRUE(a.pop().has_value());  // t=1
  ASSERT_TRUE(a.pop().has_value());  // t=2
  ASSERT_DOUBLE_EQ(a.now(), 2.0);

  // The copy: the still-pending events, in scrambled order, keep their seqs.
  std::vector<Event> pending;
  for (const Event& e : scheduled)
    if (e.time > 2.0) pending.push_back(e);
  std::reverse(pending.begin(), pending.end());
  std::swap(pending[1], pending[4]);
  EventQueue b;
  b.restore(a.now(), pending, a.next_seq());
  EXPECT_DOUBLE_EQ(b.now(), 2.0);
  EXPECT_EQ(b.next_seq(), a.next_seq());

  // New events continue the numbering and tie-break after the restored ones.
  EXPECT_EQ(a.schedule(7.0, EventKind::kTaskEnd, 500), 8u);
  EXPECT_EQ(b.schedule(7.0, EventKind::kTaskEnd, 500), 8u);
  std::vector<Event> from_a = drain(a);
  std::vector<Event> from_b = drain(b);
  ASSERT_EQ(from_a.size(), 7u);
  ASSERT_EQ(from_b.size(), from_a.size());
  for (std::size_t i = 0; i < from_a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(from_b[i].time, from_a[i].time);
    EXPECT_EQ(from_b[i].seq, from_a[i].seq);
    EXPECT_EQ(from_b[i].kind, from_a[i].kind);
    EXPECT_EQ(from_b[i].task_id, from_a[i].task_id);
  }
  // The ties at t=4 and t=7 pop in seq order, the new event last at t=7.
  EXPECT_EQ(task_ids(from_a), (std::vector<std::uint64_t>{102, 0, 0, 101, 104, 500, 107}));
}

TEST(EventQueue, RestoreRejectsPastNonFiniteAndDuplicateEvents) {
  auto restore = [](std::vector<Event> events, std::uint64_t next_seq) {
    EventQueue q;
    q.restore(5.0, std::move(events), next_seq);
  };
  EXPECT_NO_THROW(restore({{5.0, 0, EventKind::kTaskEnd, 1}, {6.0, 3, EventKind::kPumpWake, 0}},
                          4));
  EXPECT_THROW(restore({{4.0, 0, EventKind::kTaskEnd, 1}}, 1), util::CheckError);
  EXPECT_THROW(restore({{std::numeric_limits<double>::infinity(), 0, EventKind::kTaskEnd, 1}}, 1),
               util::CheckError);
  EXPECT_THROW(restore({{std::numeric_limits<double>::quiet_NaN(), 0, EventKind::kTaskEnd, 1}}, 1),
               util::CheckError);
  EXPECT_THROW(restore({{6.0, 2, EventKind::kTaskEnd, 1}, {7.0, 2, EventKind::kTaskEnd, 2}}, 3),
               util::CheckError);
  EXPECT_THROW(restore({{6.0, 3, EventKind::kTaskEnd, 1}}, 3), util::CheckError);  // seq >= next
  EventQueue q;
  q.schedule(8.0, EventKind::kPumpWake);
  ASSERT_TRUE(q.pop().has_value());
  EXPECT_THROW(q.restore(7.0, {}, 1), util::CheckError);  // the clock never runs back
}

// ---------------------------------------------------------- ArrivalScheduler

device::AvailabilityTrace simple_trace() {
  std::vector<device::AvailabilityWindow> windows = {
      {10, 0, 0.0, 100.0},
      {11, 1, 50.0, 150.0},
      {12, 2, 200.0, 300.0},
  };
  return device::AvailabilityTrace(std::move(windows));
}

TEST(ArrivalScheduler, StreamsInStartOrder) {
  auto trace = simple_trace();
  ArrivalScheduler sched(trace);
  auto a = sched.next(0.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->client_id, 10u);
  EXPECT_DOUBLE_EQ(a->time, 0.0);
  auto b = sched.next(0.0);
  EXPECT_EQ(b->client_id, 11u);
  EXPECT_DOUBLE_EQ(b->time, 50.0);  // not available before its window
  auto c = sched.next(60.0);
  EXPECT_EQ(c->client_id, 12u);
  EXPECT_FALSE(sched.next(0.0).has_value());
}

TEST(ArrivalScheduler, OpenWindowArrivesImmediately) {
  auto trace = simple_trace();
  ArrivalScheduler sched(trace);
  auto a = sched.next(75.0);  // client 10's window is open at 75
  EXPECT_EQ(a->client_id, 10u);
  EXPECT_DOUBLE_EQ(a->time, 75.0);
}

TEST(ArrivalScheduler, SkipsExpiredWindows) {
  auto trace = simple_trace();
  ArrivalScheduler sched(trace);
  auto a = sched.next(160.0);  // windows of 10 and 11 have closed
  EXPECT_EQ(a->client_id, 12u);
  EXPECT_EQ(sched.cursor(), trace.windows().size());
}

TEST(ArrivalScheduler, RequeueReoffersWithinWindow) {
  auto trace = simple_trace();
  ArrivalScheduler sched(trace);
  auto a = sched.next(0.0);
  sched.requeue(*a, 30.0);
  auto again = sched.next(0.0);
  // Requeued client 10 at t=30 comes before client 11 at t=50.
  EXPECT_EQ(again->client_id, 10u);
  EXPECT_DOUBLE_EQ(again->time, 30.0);
}

TEST(ArrivalScheduler, RequeuePastWindowEndDropped) {
  auto trace = simple_trace();
  ArrivalScheduler sched(trace);
  auto a = sched.next(0.0);
  sched.requeue(*a, 100.0);  // window ends at 100
  auto next = sched.next(0.0);
  EXPECT_EQ(next->client_id, 11u);
}

TEST(ArrivalScheduler, PeekDoesNotConsume) {
  auto trace = simple_trace();
  ArrivalScheduler sched(trace);
  auto t1 = sched.peek_time(0.0);
  auto t2 = sched.peek_time(0.0);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(*t1, *t2);
  auto a = sched.next(0.0);
  EXPECT_DOUBLE_EQ(a->time, *t1);
}

// ------------------------------------------------------------- ExecutorPool

TEST(ExecutorPool, DefaultHashAssignment) {
  ExecutorPool pool(4);
  EXPECT_EQ(pool.executor_of(5), 1u);
  EXPECT_EQ(pool.executor_of(8), 0u);
}

TEST(ExecutorPool, HealthWindows) {
  ExecutorPool pool(3);
  pool.add_outage({1, 100.0, 200.0});
  EXPECT_DOUBLE_EQ(pool.next_all_healthy(50.0), 50.0);
  EXPECT_DOUBLE_EQ(pool.next_all_healthy(100.0), 200.0);  // outage start is inclusive
  EXPECT_DOUBLE_EQ(pool.next_all_healthy(150.0), 200.0);
  EXPECT_DOUBLE_EQ(pool.next_all_healthy(200.0), 200.0);  // outage end is exclusive
}

TEST(ExecutorPool, NextAllHealthySkipsOverlappingOutages) {
  ExecutorPool pool(2);
  pool.add_outage({0, 100.0, 200.0});
  pool.add_outage({1, 150.0, 300.0});
  EXPECT_DOUBLE_EQ(pool.next_all_healthy(120.0), 300.0);
  EXPECT_DOUBLE_EQ(pool.next_all_healthy(50.0), 50.0);
}

TEST(ExecutorPool, TaskAccounting) {
  // Per-executor task counts surface as sim.executor.<i>.tasks counters.
  obs::Telemetry telemetry(obs::TelemetryConfig{});
  obs::ScopedTelemetry scope(&telemetry);
  ExecutorPool pool(2);
  pool.record_task(0);
  pool.record_task(0);
  pool.record_task(1);
  EXPECT_EQ(telemetry.metrics().counter("sim.executor.0.tasks").value(), 2u);
  EXPECT_EQ(telemetry.metrics().counter("sim.executor.1.tasks").value(), 1u);
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, PlansRespectHorizonAndRates) {
  util::Rng rng(1);
  FaultPlanConfig cfg;
  cfg.mean_time_between_failures_s = 3600.0;
  cfg.mean_outage_s = 60.0;
  cfg.horizon_s = 24.0 * 3600.0;
  auto outages = plan_faults(10, cfg, rng);
  // ~24 failures per executor-day expected: 10 executors -> ~240.
  EXPECT_GT(outages.size(), 120u);
  EXPECT_LT(outages.size(), 480u);
  for (const auto& o : outages) {
    EXPECT_LT(o.executor, 10u);
    EXPECT_GT(o.end, o.start);
    EXPECT_LE(o.end, cfg.horizon_s);
  }
}

// --------------------------------------------------------------- SimMetrics

TEST(SimMetrics, OutcomeAccounting) {
  SimMetrics m;
  m.on_task_started();
  m.on_task_started();
  m.on_task_started();
  TaskResult r;
  r.spent_compute_s = 10.0;
  r.outcome = TaskOutcome::kSucceeded;
  m.on_task_finished(r);
  r.outcome = TaskOutcome::kStale;
  m.on_task_finished(r);
  r.outcome = TaskOutcome::kInterrupted;
  m.on_task_finished(r);
  EXPECT_EQ(m.tasks_started(), 3u);
  EXPECT_EQ(m.tasks_succeeded(), 1u);
  EXPECT_EQ(m.tasks_stale(), 1u);
  EXPECT_EQ(m.tasks_interrupted(), 1u);
  EXPECT_DOUBLE_EQ(m.client_compute_s(), 30.0);
  EXPECT_NEAR(m.waste_fraction(), 2.0 / 3.0, 1e-9);
}

TEST(SimMetrics, RoundDurationsAndThroughput) {
  SimMetrics m;
  m.on_round({1, 0.0, 10.0, 5, 0.0});
  m.on_round({2, 10.0, 30.0, 5, 1.0});
  EXPECT_EQ(m.rounds().size(), 2u);
  EXPECT_DOUBLE_EQ(m.mean_round_duration_s(), 15.0);
  EXPECT_DOUBLE_EQ(m.updates_per_second(100.0), 0.1);
}

TEST(SimMetrics, DegenerateDenominatorsYieldZeroNotNan) {
  SimMetrics m;
  // No tasks started: waste is 0, not 0/0.
  EXPECT_DOUBLE_EQ(m.waste_fraction(), 0.0);
  // Degenerate horizons: 0, not a throw or inf/NaN.
  m.on_round({1, 0.0, 10.0, 5, 0.0});
  EXPECT_DOUBLE_EQ(m.updates_per_second(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.updates_per_second(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(m.updates_per_second(std::numeric_limits<double>::quiet_NaN()), 0.0);
  EXPECT_DOUBLE_EQ(m.updates_per_second(std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_FALSE(std::isnan(m.waste_fraction()));
}

// ------------------------------------------------------------------- Leader

TEST(Leader, CheckpointCadence) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "flint_leader_ckpt_test";
  fs::remove_all(dir);
  store::CheckpointStore ckpt(dir.string());

  auto trace = simple_trace();
  LeaderConfig cfg;
  cfg.executor_count = 2;
  cfg.checkpoint_every_rounds = 2;
  cfg.checkpoint_store = &ckpt;
  Leader leader(cfg, trace);
  std::vector<float> params = {1.0f};
  for (std::uint64_t round = 1; round <= 5; ++round)
    if (auto due = leader.on_aggregation(round, params, round * 3)) ckpt.write(*due);
  EXPECT_EQ(ckpt.checkpoint_count(), 2u);  // rounds 2 and 4
  auto latest = ckpt.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 4u);
  fs::remove_all(dir);
}

TEST(Leader, CadenceWithoutStoreThrows) {
  auto trace = simple_trace();
  LeaderConfig cfg;
  cfg.checkpoint_every_rounds = 5;
  EXPECT_THROW(Leader(cfg, trace), util::CheckError);
}

TEST(ArrivalScheduler, SnapshotRestoreRoundTrip) {
  std::vector<device::AvailabilityWindow> windows;
  for (std::size_t c = 0; c < 6; ++c) windows.push_back({c, 0, c * 10.0, c * 10.0 + 100.0});
  device::AvailabilityTrace trace(windows);

  ArrivalScheduler a(trace);
  // Consume some trace, requeue two arrivals at the same retry time so the
  // insertion-order tie-break is exercised across the round trip.
  auto first = a.next(0.0);
  auto second = a.next(0.0);
  ASSERT_TRUE(first && second);
  a.requeue(*second, 25.0);
  a.requeue(*first, 25.0);

  ArrivalScheduler b(trace);
  b.restore(a.cursor(), a.requeued());
  EXPECT_EQ(b.cursor(), a.cursor());
  // Both schedulers must serve identical streams from here.
  for (int i = 0; i < 8; ++i) {
    auto na = a.next(20.0);
    auto nb = b.next(20.0);
    ASSERT_EQ(na.has_value(), nb.has_value());
    if (!na) break;
    EXPECT_EQ(na->client_id, nb->client_id);
    EXPECT_EQ(na->time, nb->time);
    EXPECT_EQ(na->window_end, nb->window_end);
  }
}

TEST(Leader, DispatchGateFollowsExecutorHealth) {
  auto trace = simple_trace();
  LeaderConfig cfg;
  cfg.executor_count = 2;
  Leader leader(cfg, trace);
  leader.executors().add_outage({0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(leader.dispatch_gate(15.0), 20.0);
  EXPECT_DOUBLE_EQ(leader.dispatch_gate(5.0), 5.0);
}

}  // namespace
}  // namespace flint::sim
