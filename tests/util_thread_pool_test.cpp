#include "flint/util/thread_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace flint::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<TaskHandle<int>> tasks;
  for (int i = 0; i < 100; ++i)
    tasks.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(tasks[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, WorkerIndexIsNposOffPoolAndValidOnPool) {
  EXPECT_EQ(ThreadPool::worker_index(), ThreadPool::npos);
  ThreadPool pool(3);
  std::atomic<int> finished{0};
  std::vector<TaskHandle<std::size_t>> tasks;
  for (int i = 0; i < 32; ++i)
    tasks.push_back(pool.submit([&finished] {
      finished.fetch_add(1);
      return ThreadPool::worker_index();
    }));
  // Join only once the workers have run every task, so none runs here.
  while (finished.load() < 32) std::this_thread::yield();
  for (auto& t : tasks) {
    std::size_t index = t.get();
    EXPECT_LT(index, 3u);
  }
  // The submitting thread is still off-pool.
  EXPECT_EQ(ThreadPool::worker_index(), ThreadPool::npos);
}

TEST(ThreadPool, ExceptionsPropagateThroughHandles) {
  ThreadPool pool(2);
  auto task = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(task.get(), std::runtime_error);
  // The worker survives the throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i)
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
  }  // dtor must run everything already queued
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, BusySecondsAccumulate) {
  // Each worker reports its running total; the last report per worker must
  // cover every sleep that worker ran.
  std::array<std::atomic<double>, 2> last{0.0, 0.0};
  ThreadPoolObserver observer;
  observer.on_worker_busy = [&last](std::size_t worker, double busy_s) {
    EXPECT_GE(busy_s, last[worker].load());
    last[worker].store(busy_s);
  };
  {
    // Left unjoined, so the workers run all eight (a joiner would run some
    // itself) and the destructor waits for them.
    ThreadPool pool(2, std::move(observer));
    for (int i = 0; i < 8; ++i)
      pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
  }
  EXPECT_GE(last[0].load() + last[1].load(), 8 * 0.002);
}

TEST(ThreadPool, ObserverCallbacksFire) {
  std::atomic<int> submitted{0};
  std::atomic<int> depth_updates{0};
  std::atomic<int> busy_updates{0};
  std::atomic<int> worker_busy_updates{0};
  {
    ThreadPoolObserver obs;
    obs.on_task_submitted = [&submitted] { submitted.fetch_add(1); };
    obs.on_queue_depth = [&depth_updates](std::size_t) { depth_updates.fetch_add(1); };
    obs.on_busy_workers = [&busy_updates](std::size_t) { busy_updates.fetch_add(1); };
    obs.on_worker_busy = [&worker_busy_updates](std::size_t worker, double busy_s) {
      EXPECT_LT(worker, 2u);
      EXPECT_GE(busy_s, 0.0);
      worker_busy_updates.fetch_add(1);
    };
    // Unjoined: the workers run all twenty, each reporting its busy time.
    ThreadPool pool(2, std::move(obs));
    for (int i = 0; i < 20; ++i) pool.submit([] {});
  }
  EXPECT_EQ(submitted.load(), 20);
  EXPECT_GT(depth_updates.load(), 0);
  EXPECT_GT(busy_updates.load(), 0);
  EXPECT_EQ(worker_busy_updates.load(), 20);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  std::vector<int> values(10'000);
  std::iota(values.begin(), values.end(), 1);
  long expected = std::accumulate(values.begin(), values.end(), 0L);

  ThreadPool pool(4);
  constexpr std::size_t kShard = 1000;
  std::vector<TaskHandle<long>> tasks;
  for (std::size_t begin = 0; begin < values.size(); begin += kShard) {
    std::size_t end = std::min(begin + kShard, values.size());
    tasks.push_back(pool.submit([&values, begin, end] {
      long sum = 0;
      for (std::size_t i = begin; i < end; ++i) sum += values[i];
      return sum;
    }));
  }
  long total = 0;
  for (auto& t : tasks) total += t.get();
  EXPECT_EQ(total, expected);
}

// Occupies the single worker of a one-thread pool until release() — so every
// task submitted meanwhile is still unclaimed when the test joins it.
class HeldWorker {
 public:
  explicit HeldWorker(ThreadPool& pool)
      : task_(pool.submit([this] {
          started_.count_down();
          release_.wait();
        })) {
    started_.wait();
  }
  ~HeldWorker() { release(); }

  void release() {
    if (!task_.valid()) return;
    release_.count_down();
    task_.get();
  }

 private:
  std::latch started_{1};
  std::latch release_{1};
  TaskHandle<void> task_;
};

TEST(ThreadPool, UnstartedTaskRunsOnTheJoiningThread) {
  ThreadPool pool(1);
  HeldWorker held(pool);
  TaskHandle<std::size_t> task = pool.submit([] { return ThreadPool::worker_index(); });
  EXPECT_EQ(task.get(), ThreadPool::npos);
  EXPECT_FALSE(task.valid());
  held.release();
}

TEST(ThreadPool, ExceptionFromAnInlineRunTaskReachesGet) {
  ThreadPool pool(1);
  HeldWorker held(pool);
  std::atomic<std::size_t> ran_on{0};
  TaskHandle<int> task = pool.submit([&ran_on]() -> int {
    ran_on.store(ThreadPool::worker_index());
    throw std::runtime_error("inline boom");
  });
  EXPECT_THROW(task.get(), std::runtime_error);
  EXPECT_EQ(ran_on.load(), ThreadPool::npos);
  held.release();
  // The worker skips the claimed task and still serves new ones.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, EveryTaskRunsExactlyOnceWhileWorkersRaceTheJoiner) {
  // Small batches joined at once: sometimes a worker claims a task first,
  // sometimes the joiner does. Either way each body runs once.
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kTasks = 12'000;
  std::vector<std::atomic<int>> runs(kTasks);
  ThreadPool pool(3);
  std::vector<TaskHandle<std::size_t>> batch;
  for (std::size_t begin = 0; begin < kTasks; begin += kBatch) {
    batch.clear();
    for (std::size_t i = begin; i < begin + kBatch; ++i)
      batch.push_back(pool.submit([&runs, i] {
        runs[i].fetch_add(1);
        return i;
      }));
    for (std::size_t k = 0; k < kBatch; ++k) ASSERT_EQ(batch[k].get(), begin + k);
  }
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(runs[i].load(), 1) << "task " << i;
}

TEST(ThreadPool, WorkerJoiningATaskQueuedBehindItselfCompletes) {
  // The only worker joins a task queued behind the one it is running; help
  // on join runs the inner task inline on that worker, so nobody waits on a
  // task only a busy worker could pick up.
  ThreadPool pool(1);
  std::latch outer_started(1);
  TaskHandle<std::size_t> outer = pool.submit([&pool, &outer_started] {
    outer_started.count_down();
    TaskHandle<std::size_t> inner = pool.submit([] { return ThreadPool::worker_index(); });
    return inner.get();
  });
  outer_started.wait();  // the worker, not this thread, runs `outer`
  EXPECT_EQ(outer.get(), 0u);
}

}  // namespace
}  // namespace flint::util
