#include "flint/util/thread_pool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace flint::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, WorkerIndexIsNposOffPoolAndValidOnPool) {
  EXPECT_EQ(ThreadPool::worker_index(), ThreadPool::npos);
  ThreadPool pool(3);
  std::vector<std::future<std::size_t>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit([] { return ThreadPool::worker_index(); }));
  for (auto& f : futures) {
    std::size_t index = f.get();
    EXPECT_LT(index, 3u);
  }
  // The submitting thread is still off-pool.
  EXPECT_EQ(ThreadPool::worker_index(), ThreadPool::npos);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
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
    ThreadPool pool(2, std::move(observer));
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i)
      futures.push_back(pool.submit([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }));
    for (auto& f : futures) f.get();
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
    ThreadPool pool(2, std::move(obs));
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i) futures.push_back(pool.submit([] {}));
    for (auto& f : futures) f.get();
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
  std::vector<std::future<long>> futures;
  for (std::size_t begin = 0; begin < values.size(); begin += kShard) {
    std::size_t end = std::min(begin + kShard, values.size());
    futures.push_back(pool.submit([&values, begin, end] {
      long sum = 0;
      for (std::size_t i = begin; i < end; ++i) sum += values[i];
      return sum;
    }));
  }
  long total = 0;
  for (auto& f : futures) total += f.get();
  EXPECT_EQ(total, expected);
}

}  // namespace
}  // namespace flint::util
