#include <gtest/gtest.h>

#include "flint/sim/event_queue.h"
#include "flint/sim/executor.h"
#include "flint/sim/fault_injector.h"
#include "flint/sim/leader.h"
#include "flint/sim/scheduler.h"
#include "flint/sim/sim_metrics.h"
#include "flint/store/checkpoint.h"

#include <cmath>
#include <filesystem>
#include <limits>

namespace flint::sim {
namespace {

// --------------------------------------------------------------- EventQueue

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [&order, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksCanScheduleMore) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule(q.now() + 1.0, chain);
  };
  q.schedule(0.0, chain);
  q.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule(1.0, [] {}), util::CheckError);
}

TEST(EventQueue, RunWithBudgetStops) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) q.schedule(static_cast<double>(i), [&] { ++fired; });
  q.run(3);
  EXPECT_EQ(fired, 3);
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
  EXPECT_EQ(pool.size(), 4u);
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
  EXPECT_EQ(m.aggregations(), 2u);
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
    leader.on_aggregation(round, params, round * 3);
  EXPECT_EQ(leader.checkpoints_written(), 2u);  // rounds 2 and 4
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

TEST(EventQueue, AdvanceToFastForwardsWithoutExecuting) {
  EventQueue q;
  int fired = 0;
  q.advance_to(5.0);  // empty queue: just moves the clock
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.schedule(10.0, [&] { ++fired; });
  q.advance_to(8.0);
  EXPECT_DOUBLE_EQ(q.now(), 8.0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, AdvanceToPastPendingEventThrows) {
  EventQueue q;
  q.schedule(3.0, [] {});
  EXPECT_THROW(q.advance_to(4.0), util::CheckError);
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
  b.restore(a.cursor(), a.requeued_snapshot());
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
