#include "flint/util/thread_pool.h"

#include <chrono>
#include <utility>

namespace flint::util {

namespace {

// The pool this thread works for. Plain thread_locals: a worker belongs to
// exactly one pool for its whole lifetime.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker_index = ThreadPool::npos;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, ThreadPoolObserver observer)
    : observer_(std::move(observer)) {
  FLINT_CHECK_GT(threads, std::size_t{0});
  busy_s_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    busy_s_.push_back(std::make_unique<std::atomic<double>>(0.0));
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::size_t ThreadPool::worker_index() { return tls_worker_index; }

const ThreadPool* ThreadPool::current_pool() { return tls_pool; }

std::size_t ThreadPool::queue_depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

double ThreadPool::busy_seconds(std::size_t i) const {
  FLINT_CHECK_LT(i, busy_s_.size());
  return busy_s_[i]->load(std::memory_order_relaxed);
}

void ThreadPool::enqueue(std::function<void()> fn) {
  std::size_t depth;
  {
    MutexLock lock(mu_);
    FLINT_CHECK_MSG(!stop_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(fn));
    depth = queue_.size();
  }
  cv_.notify_one();
  if (observer_.on_task_submitted) observer_.on_task_submitted();
  if (observer_.on_queue_depth) observer_.on_queue_depth(depth);
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_worker_index = index;
  for (;;) {
    std::function<void()> task;
    std::size_t depth;
    std::size_t busy;
    {
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
      busy = ++busy_;
    }
    if (observer_.on_queue_depth) observer_.on_queue_depth(depth);
    if (observer_.on_busy_workers) observer_.on_busy_workers(busy);
    // flint-analyze: allow(nondet-source): wall-clock observability boundary —
    // per-worker busy seconds feed util.pool.* gauges, never simulated results.
    auto start = std::chrono::steady_clock::now();
    task();
    // flint-analyze: allow(nondet-source): same wall-clock gauge as above.
    double spent =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    double total = busy_s_[index]->load(std::memory_order_relaxed) + spent;
    busy_s_[index]->store(total, std::memory_order_relaxed);
    if (observer_.on_worker_busy) observer_.on_worker_busy(index, total);
    {
      MutexLock lock(mu_);
      busy = --busy_;
    }
    if (observer_.on_busy_workers) observer_.on_busy_workers(busy);
  }
}

}  // namespace flint::util
