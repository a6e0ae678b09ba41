// Crash-safe checkpoint/resume (DESIGN.md §12): a run restored from a
// checkpoint must finish bit-identically to an uninterrupted run — model
// parameters, eval curve, system metrics, attribution — at any thread count.
//
// The in-process trick: a run capped at max_rounds=N leaves behind exactly
// the checkpoint an uninterrupted run writes at round N's cadence point (the
// done flag is never serialized), so "crash at round N" is simulated by a
// short run plus a resumed run, no process kill needed. The real SIGKILL
// path is covered by scripts/crash_resume_test.sh.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"
#include "flint/store/checkpoint.h"
#include "flint/util/check.h"
#include "run_identical.h"
#include "test_helpers.h"

namespace flint::fl {
namespace {

std::string fresh_dir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("fl_resume_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

struct Options {
  std::size_t threads = 1;
  std::uint64_t max_rounds = 4;
  std::uint64_t seed = 9;
  bool dp = false;
  bool compression = false;
  bool interruption_prone_trace = false;
  /// Feed the run a fresh device::TraceWindowStream over the trace instead
  /// of the materialized trace (the leader's streaming arrival path).
  bool streamed = false;
  /// Cooldown before a client may train again (0: reuse clients freely).
  double reparticipation_gap_s = 0.0;
  /// Clients the trace makes available (of the task's 40).
  std::size_t available_clients = 40;
};

/// Half the clients always-on, half flickering through windows shorter than
/// a task (interruption-prone), so checkpoints carry in-flight tasks that
/// are fated to be cut off by their availability window.
device::AvailabilityTrace mixed_trace(std::size_t clients, double horizon_s) {
  std::vector<device::AvailabilityWindow> windows;
  for (std::size_t c = 0; c < clients; ++c) {
    if (c % 2 == 0) {
      windows.push_back({c, 0, 0.0, horizon_s});
    } else {
      for (double t = 0.0; t < 100.0; t += 5.0) windows.push_back({c, 0, t, t + 0.2});
      windows.push_back({c, 0, 100.0, horizon_s});
    }
  }
  return device::AvailabilityTrace(std::move(windows));
}

class Harness {
 public:
  Harness() {
    util::Rng rng(77);
    task_ = test::small_task(rng, /*clients=*/40);
  }

  RunResult run_avg(const Options& o, store::CheckpointStore* store,
                    store::CheckpointStore* resume_from) {
    util::Rng model_rng(5);
    auto model = task_.make_model(model_rng);
    auto trace = o.interruption_prone_trace ? mixed_trace(40, 1e7)
                                            : test::always_available(40, 1e7);
    auto catalog = device::DeviceCatalog::standard();
    test::FixedBandwidthModel bw(10.0);
    SyncConfig cfg;
    test::wire_inputs(cfg.inputs, task_, *model, trace, catalog, bw);
    apply_options(cfg.inputs, o, store, resume_from);
    device::TraceWindowStream stream(trace);
    if (o.streamed) {
      cfg.inputs.trace = nullptr;
      cfg.inputs.window_stream = &stream;
    }
    cfg.cohort_size = 8;
    return run_fedavg(cfg);
  }

  RunResult run_buff(const Options& o, store::CheckpointStore* store,
                     store::CheckpointStore* resume_from) {
    util::Rng model_rng(5);
    auto model = task_.make_model(model_rng);
    auto trace = o.interruption_prone_trace ? mixed_trace(40, 1e7)
                                            : test::always_available(o.available_clients, 1e7);
    auto catalog = device::DeviceCatalog::standard();
    test::FixedBandwidthModel bw(10.0);
    AsyncConfig cfg;
    test::wire_inputs(cfg.inputs, task_, *model, trace, catalog, bw);
    apply_options(cfg.inputs, o, store, resume_from);
    device::TraceWindowStream stream(trace);
    if (o.streamed) {
      cfg.inputs.trace = nullptr;
      cfg.inputs.window_stream = &stream;
    }
    cfg.buffer_size = 4;
    cfg.max_concurrency = 12;
    cfg.max_staleness = 50;
    return run_fedbuff(cfg);
  }

 private:
  static void apply_options(RunInputs& inputs, const Options& o,
                            store::CheckpointStore* store,
                            store::CheckpointStore* resume_from) {
    inputs.threads = o.threads;
    inputs.max_rounds = o.max_rounds;
    inputs.eval_every_rounds = 1;
    inputs.seed = o.seed;
    inputs.leader.checkpoint_every_rounds = 2;
    inputs.leader.checkpoint_store = store;
    inputs.resume_from = resume_from;
    inputs.reparticipation_gap_s = o.reparticipation_gap_s;
    if (o.dp) {
      privacy::DpConfig dp;
      dp.clip_norm = 1.0;
      dp.noise_multiplier = 0.4;
      inputs.dp = dp;
    }
    if (o.compression) {
      compress::CompressionConfig c;
      c.kind = compress::CompressionKind::kTopK;
      c.top_k_fraction = 0.25;
      inputs.compression = c;
    }
  }

  data::FederatedTask task_;
};

/// The serialized bytes of `c`'s async-runner section alone: the buffer, the
/// pump wake, `next_stamp` and every in-flight record with its stamp.
std::vector<char> fedbuff_section_bytes(const store::SimCheckpoint& c) {
  store::SimCheckpoint only;
  only.has_fedbuff = c.has_fedbuff;
  only.fedbuff = c.fedbuff;
  return store::serialize_checkpoint(only);
}

// "Crash" at `crash_rounds`, resume, finish at `full_rounds`; the result must
// be bit-identical to an uninterrupted `full_rounds` run at every thread
// count. `expected_resume_round` is the newest cadence point <= crash_rounds.
void check_resume(bool fedbuff, Options base, std::uint64_t crash_rounds,
                  std::uint64_t full_rounds, std::uint64_t expected_resume_round,
                  const char* label) {
  SCOPED_TRACE(label);
  Harness h;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    auto tag = std::string(label) + "-t" + std::to_string(threads);
    store::CheckpointStore ref_store(fresh_dir(tag + "-ref"));
    store::CheckpointStore crash_store(fresh_dir(tag + "-crash"));

    Options o = base;
    o.threads = threads;
    o.max_rounds = full_rounds;
    RunResult reference =
        fedbuff ? h.run_buff(o, &ref_store, nullptr) : h.run_avg(o, &ref_store, nullptr);
    ASSERT_EQ(reference.rounds, full_rounds);
    EXPECT_EQ(reference.resume_count, 0u);

    o.max_rounds = crash_rounds;
    RunResult crashed =
        fedbuff ? h.run_buff(o, &crash_store, nullptr) : h.run_avg(o, &crash_store, nullptr);
    ASSERT_EQ(crashed.rounds, crash_rounds);

    o.max_rounds = full_rounds;
    RunResult resumed = fedbuff ? h.run_buff(o, &crash_store, &crash_store)
                                : h.run_avg(o, &crash_store, &crash_store);
    EXPECT_EQ(resumed.resumed_from_round, expected_resume_round);
    EXPECT_EQ(resumed.resume_count, 1u);
    test::expect_identical_runs(reference, resumed, tag.c_str());
    if (fedbuff) {
      // The resumed run's last checkpoint was written after the resume; it
      // must carry the same event-queue state as the uninterrupted run's.
      std::optional<store::SimCheckpoint> ref_last = ref_store.latest();
      std::optional<store::SimCheckpoint> resumed_last = crash_store.latest();
      ASSERT_TRUE(ref_last.has_value());
      ASSERT_TRUE(resumed_last.has_value());
      ASSERT_TRUE(resumed_last->has_fedbuff);
      EXPECT_GT(resumed_last->round, expected_resume_round);
      EXPECT_EQ(resumed_last->round, ref_last->round);
      EXPECT_EQ(fedbuff_section_bytes(*resumed_last), fedbuff_section_bytes(*ref_last));
    }
  }
}

TEST(CrashResume, FedAvgResumeAtCadenceBoundaryBitIdentical) {
  check_resume(/*fedbuff=*/false, {}, /*crash_rounds=*/2, /*full_rounds=*/4,
               /*expected_resume_round=*/2, "fedavg-boundary");
}

TEST(CrashResume, FedAvgResumeAtNonBoundaryRoundBitIdentical) {
  // Crash at round 3 with cadence 2: the newest checkpoint is round 2, so the
  // resumed run replays round 3 and must still match.
  check_resume(/*fedbuff=*/false, {}, /*crash_rounds=*/3, /*full_rounds=*/4,
               /*expected_resume_round=*/2, "fedavg-nonboundary");
}

TEST(CrashResume, FedBuffResumeAtCadenceBoundaryBitIdentical) {
  check_resume(/*fedbuff=*/true, {}, /*crash_rounds=*/2, /*full_rounds=*/5,
               /*expected_resume_round=*/2, "fedbuff-boundary");
}

TEST(CrashResume, FedBuffResumeAtNonBoundaryRoundBitIdentical) {
  check_resume(/*fedbuff=*/true, {}, /*crash_rounds=*/3, /*full_rounds=*/5,
               /*expected_resume_round=*/2, "fedbuff-nonboundary");
}

TEST(CrashResume, FedAvgResumeOnWindowStreamBitIdentical) {
  // The streaming leader restores its arrival cursor by replaying a fresh
  // stream forward, at a cadence round and at a non-cadence round.
  Options o;
  o.streamed = true;
  check_resume(/*fedbuff=*/false, o, /*crash_rounds=*/2, /*full_rounds=*/4,
               /*expected_resume_round=*/2, "fedavg-stream-boundary");
  check_resume(/*fedbuff=*/false, o, /*crash_rounds=*/3, /*full_rounds=*/4,
               /*expected_resume_round=*/2, "fedavg-stream-nonboundary");
}

TEST(CrashResume, FedBuffResumeOnWindowStreamBitIdentical) {
  Options o;
  o.streamed = true;
  check_resume(/*fedbuff=*/true, o, /*crash_rounds=*/2, /*full_rounds=*/5,
               /*expected_resume_round=*/2, "fedbuff-stream-boundary");
  check_resume(/*fedbuff=*/true, o, /*crash_rounds=*/3, /*full_rounds=*/5,
               /*expected_resume_round=*/2, "fedbuff-stream-nonboundary");
}

TEST(CrashResume, FedBuffResumeWithInterruptedInFlightTasks) {
  // The checkpoint must carry in-flight tasks that are fated to be window-cut
  // (interrupted), and the resumed run must replay their fates exactly.
  Options o;
  o.interruption_prone_trace = true;
  {
    // Probe: the trace must actually force interruptions, or this test
    // silently degenerates into FedBuffResumeAtCadenceBoundaryBitIdentical.
    Harness h;
    store::CheckpointStore probe_store(fresh_dir("fedbuff-interrupted-probe"));
    RunResult probe = h.run_buff(o, &probe_store, nullptr);
    ASSERT_GT(probe.metrics.tasks_interrupted(), 0u);
  }
  check_resume(/*fedbuff=*/true, o, /*crash_rounds=*/2, /*full_rounds=*/4,
               /*expected_resume_round=*/2, "fedbuff-interrupted");
}

TEST(CrashResume, FedBuffResumeAfterAFiredPumpWake) {
  // Twelve clients for twelve slots and a cooldown: the pump waits out
  // cooldowns on a wake, and the wake's dispatches then fill every slot. A
  // checkpoint written with no wake pending still records the last wake's
  // time and seq, and a resumed run must carry them on unchanged.
  Options o;
  o.available_clients = 12;
  o.reparticipation_gap_s = 0.1;
  {
    // Probe: the crash checkpoint must hold a fired wake, or this test
    // degenerates into FedBuffResumeAtCadenceBoundaryBitIdentical.
    Harness h;
    store::CheckpointStore probe_store(fresh_dir("fedbuff-fired-wake-probe"));
    o.max_rounds = 2;
    h.run_buff(o, &probe_store, nullptr);
    std::optional<store::SimCheckpoint> probe = probe_store.latest();
    ASSERT_TRUE(probe.has_value());
    ASSERT_FALSE(probe->fedbuff.pump_scheduled);
    ASSERT_GT(probe->fedbuff.pump_stamp, 0u);
    ASSERT_GT(probe->fedbuff.pump_time, 0.0);
  }
  check_resume(/*fedbuff=*/true, o, /*crash_rounds=*/2, /*full_rounds=*/5,
               /*expected_resume_round=*/2, "fedbuff-fired-wake");
}

TEST(CrashResume, DpAndCompressionVariantResumesBitIdentically) {
  Options o;
  o.dp = true;
  o.compression = true;
  check_resume(/*fedbuff=*/true, o, /*crash_rounds=*/2, /*full_rounds=*/4,
               /*expected_resume_round=*/2, "fedbuff-dp-compression");
}

TEST(CrashResume, CorruptInFlightRecordsAreRejected) {
  // The codec checks bounds, not uniqueness, so a checkpoint whose CRC is
  // valid can still list one in-flight task twice, or give two tasks one
  // stamp. Resume must refuse both rather than complete a task twice.
  Harness h;
  store::CheckpointStore store(fresh_dir("corrupt-in-flight"));
  Options o;
  o.max_rounds = 2;
  h.run_buff(o, &store, nullptr);
  std::optional<store::SimCheckpoint> good = store.latest();
  ASSERT_TRUE(good.has_value());
  ASSERT_GE(good->fedbuff.in_flight.size(), 2u);
  o.max_rounds = 4;

  store::SimCheckpoint duplicated = *good;
  auto& records = duplicated.fedbuff.in_flight;
  records.insert(records.begin() + 1, records.front());
  store::CheckpointStore duplicated_store(fresh_dir("duplicated-in-flight"));
  duplicated_store.write(duplicated);  // the store recomputes length and CRC
  ASSERT_TRUE(duplicated_store.latest().has_value());
  EXPECT_THROW(h.run_buff(o, &duplicated_store, &duplicated_store), util::CheckError);

  store::SimCheckpoint shared_stamp = *good;
  shared_stamp.fedbuff.in_flight[1].stamp = shared_stamp.fedbuff.in_flight[0].stamp;
  store::CheckpointStore shared_stamp_store(fresh_dir("shared-stamp-in-flight"));
  shared_stamp_store.write(shared_stamp);
  ASSERT_TRUE(shared_stamp_store.latest().has_value());
  EXPECT_THROW(h.run_buff(o, &shared_stamp_store, &shared_stamp_store), util::CheckError);

  // The untouched checkpoint still resumes.
  store::CheckpointStore good_store(fresh_dir("untouched-in-flight"));
  good_store.write(*good);
  EXPECT_NO_THROW(h.run_buff(o, &good_store, &good_store));
}

TEST(CrashResume, EmptyStoreMeansFreshRun) {
  Harness h;
  store::CheckpointStore ref_store(fresh_dir("fresh-ref"));
  store::CheckpointStore empty_store(fresh_dir("fresh-empty"));
  Options o;
  RunResult reference = h.run_buff(o, &ref_store, nullptr);
  RunResult fresh = h.run_buff(o, &empty_store, &empty_store);
  EXPECT_EQ(fresh.resumed_from_round, 0u);
  EXPECT_EQ(fresh.resume_count, 0u);
  test::expect_identical_runs(reference, fresh, "fresh");
}

TEST(CrashResume, SeedMismatchRefusesToSpliceLineages) {
  Harness h;
  store::CheckpointStore store(fresh_dir("seed-mismatch"));
  Options o;
  o.max_rounds = 2;
  h.run_buff(o, &store, nullptr);
  o.seed = 10;
  o.max_rounds = 4;
  EXPECT_THROW(h.run_buff(o, &store, &store), util::CheckError);
}

TEST(CrashResume, AlgorithmMismatchRefusesCheckpoint) {
  Harness h;
  store::CheckpointStore store(fresh_dir("algo-mismatch"));
  Options o;
  o.max_rounds = 2;
  h.run_buff(o, &store, nullptr);
  o.max_rounds = 4;
  EXPECT_THROW(h.run_avg(o, &store, &store), util::CheckError);
}

}  // namespace
}  // namespace flint::fl
