// Standalone ThreadSanitizer smoke: hammers CheckpointStore, the obs
// MetricRegistry, and util::ThreadPool (including joiners racing workers for
// the claim on each task) from several threads without pulling
// in gtest or the full library. scripts/tsan_smoke.sh compiles this TU plus
// the checkpoint, obs, and thread-pool TUs directly with -fsanitize=thread,
// so the race check runs in seconds instead of requiring a full sanitizer
// tree. Registered as the `tsan_smoke` ctest entry.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "flint/obs/telemetry.h"
#include "flint/store/checkpoint.h"
#include "flint/util/thread_pool.h"

namespace {

// Mixed-operation hammer on one registry: concurrent lookup/creation of the
// same and distinct series, plus recording through the returned handles while
// another thread snapshots. Any unlocked map mutation or non-atomic metric
// update shows up as a TSan report here.
int hammer_registry() {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  flint::obs::MetricRegistry registry;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      for (int i = 0; i < kIters; ++i) {
        registry.counter("shared.counter").add(1);
        registry.counter("worker." + std::to_string(t) + ".counter").add(2);
        registry.gauge("shared.gauge").set(static_cast<double>(i));
        registry.histogram("shared.hist", 0.0, 100.0, 10).record(i % 100);
        if (i % 256 == 0) (void)registry.snapshot();
      }
    });
  }
  for (auto& w : workers) w.join();

  int failures = 0;
  const auto expected =
      static_cast<std::uint64_t>(kThreads) * static_cast<std::uint64_t>(kIters);
  if (registry.counter("shared.counter").value() != expected) {
    std::fprintf(stderr, "tsan_smoke: shared.counter lost updates\n");
    ++failures;
  }
  if (registry.series_count() != static_cast<std::size_t>(kThreads) + 3) {
    std::fprintf(stderr, "tsan_smoke: unexpected series count %zu\n",
                 registry.series_count());
    ++failures;
  }
  return failures;
}

// Pool hammer: concurrent submitters racing the workers, observer callbacks
// mutating shared counters, and a draining destructor with tasks still queued. Any missing
// lock in enqueue/worker_loop or non-atomic busy accounting trips TSan here.
int hammer_thread_pool() {
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 500;
  int failures = 0;

  std::atomic<std::uint64_t> observed_submissions{0};
  flint::util::ThreadPoolObserver observer;
  observer.on_task_submitted = [&observed_submissions] { observed_submissions.fetch_add(1); };
  observer.on_queue_depth = [](std::size_t) {};
  observer.on_busy_workers = [](std::size_t) {};
  observer.on_worker_busy = [](std::size_t, double) {};

  std::atomic<std::uint64_t> sum{0};
  {
    flint::util::ThreadPool pool(3, std::move(observer));
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&pool, &sum, t] {
        std::vector<flint::util::TaskHandle<int>> tasks;
        tasks.reserve(kTasksPerSubmitter);
        for (int i = 0; i < kTasksPerSubmitter; ++i) {
          tasks.push_back(pool.submit([t, i] {
            (void)flint::util::ThreadPool::worker_index();
            return t + i;
          }));
        }
        for (auto& task : tasks) sum.fetch_add(static_cast<std::uint64_t>(task.get()));
      });
    }
    for (auto& s : submitters) s.join();
    // Leave a tail of unjoined tasks for the draining destructor.
    for (int i = 0; i < 100; ++i) pool.submit([&sum] { sum.fetch_add(1); });
  }

  std::uint64_t expected = 100;
  for (int t = 0; t < kSubmitters; ++t)
    for (int i = 0; i < kTasksPerSubmitter; ++i)
      expected += static_cast<std::uint64_t>(t + i);
  if (sum.load() != expected) {
    std::fprintf(stderr, "tsan_smoke: pool sum %llu != expected %llu\n",
                 static_cast<unsigned long long>(sum.load()),
                 static_cast<unsigned long long>(expected));
    ++failures;
  }
  if (observed_submissions.load() !=
      static_cast<std::uint64_t>(kSubmitters) * kTasksPerSubmitter + 100) {
    std::fprintf(stderr, "tsan_smoke: observer missed submissions\n");
    ++failures;
  }
  return failures;
}

// Help-on-join hammer: joiners submit small batches and join them at once,
// so a worker and the joiner race for the claim on nearly every task. Each
// task writes plain (non-atomic) memory that its joiner reads after get():
// TSan reports a race unless completion publishes those writes to the
// joiner, whichever side ran the task. Every task must also run exactly once.
int hammer_help_on_join() {
  constexpr int kJoiners = 3;
  constexpr int kBatches = 400;
  constexpr int kBatch = 4;
  int failures = 0;
  std::atomic<int> lost{0};
  std::vector<std::vector<int>> slots(kJoiners, std::vector<int>(kBatches * kBatch, 0));
  {
    flint::util::ThreadPool pool(2);
    std::vector<std::thread> joiners;
    joiners.reserve(kJoiners);
    for (int j = 0; j < kJoiners; ++j) {
      joiners.emplace_back([&pool, &slots, &lost, j] {
        std::vector<int>& mine = slots[static_cast<std::size_t>(j)];
        std::vector<flint::util::TaskHandle<void>> batch;
        for (int b = 0; b < kBatches; ++b) {
          batch.clear();
          for (int k = 0; k < kBatch; ++k) {
            int* slot = &mine[static_cast<std::size_t>(b * kBatch + k)];
            batch.push_back(pool.submit([slot] { ++*slot; }));
          }
          for (auto& task : batch) task.get();
          for (int k = 0; k < kBatch; ++k)
            if (mine[static_cast<std::size_t>(b * kBatch + k)] != 1) lost.fetch_add(1);
        }
      });
    }
    for (auto& joiner : joiners) joiner.join();
  }
  if (lost.load() != 0) {
    std::fprintf(stderr, "tsan_smoke: %d task(s) did not run exactly once\n", lost.load());
    ++failures;
  }
  return failures;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "flint_tsan_smoke";
  fs::remove_all(dir);

  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 16;
  std::atomic<int> failures{0};
  failures.fetch_add(hammer_registry());
  failures.fetch_add(hammer_thread_pool());
  failures.fetch_add(hammer_help_on_join());

  // Ambient telemetry so the checkpoint writers below also exercise the obs
  // cold recording path (checkpoint write latency/bytes) concurrently.
  flint::obs::TelemetryConfig telemetry_config;
  flint::obs::Telemetry telemetry(telemetry_config);
  flint::obs::ScopedTelemetry telemetry_scope(&telemetry);
  {
    flint::store::CheckpointStore store(dir.string());
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&store, &failures, t] {
        for (int i = 0; i < kWritesPerThread; ++i) {
          flint::store::SimCheckpoint ckpt;
          ckpt.virtual_time_s = static_cast<double>(i);
          ckpt.round = static_cast<std::uint64_t>(i) + 1;
          ckpt.model_parameters.assign(32, static_cast<float>(t));
          if (store.write(ckpt) < 1) failures.fetch_add(1);

          auto blob = flint::store::serialize_checkpoint(ckpt);
          auto back = flint::store::deserialize_checkpoint(blob);
          if (back.round != ckpt.round) failures.fetch_add(1);
        }
      });
    }
    for (auto& w : writers) w.join();

    if (store.checkpoint_count() !=
        static_cast<std::size_t>(kThreads * kWritesPerThread)) {
      std::fprintf(stderr, "tsan_smoke: expected %d checkpoints, found %zu\n",
                   kThreads * kWritesPerThread, store.checkpoint_count());
      failures.fetch_add(1);
    }
    if (!store.latest().has_value()) {
      std::fprintf(stderr, "tsan_smoke: latest() empty after writes\n");
      failures.fetch_add(1);
    }
  }
  fs::remove_all(dir);

  if (failures.load() != 0) {
    std::fprintf(stderr, "tsan_smoke: FAILED (%d)\n", failures.load());
    return 1;
  }
  std::puts("tsan_smoke: OK");
  return 0;
}
