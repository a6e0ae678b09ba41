// Fixed-size worker pool with task futures — the substrate of FLINT's
// parallel client-training runtime.
//
// Deliberately work-stealing-free: tasks start in submission order on
// whichever worker frees up first, and callers impose any ordering that
// matters by joining futures in a fixed order (the fl runners reduce client
// updates into the accumulator in task order). Determinism therefore lives
// at the join, never in the queue, and `--threads N` can only change wall
// time, not results.
//
// util sits below flint::obs, so the pool does not record metrics itself;
// it reports queue depth, busy workers, and per-worker busy seconds through
// a ThreadPoolObserver that the creating layer wires to gauges
// (fl::TrainerPool publishes util.pool.* — see trainer_pool.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "flint/util/check.h"
#include "flint/util/thread_annotations.h"

namespace flint::util {

/// Pool instrumentation callbacks, invoked from submitters and workers.
/// Every installed callback must be thread-safe; unset callbacks cost one
/// branch. Invocation granularity is one task, never finer.
struct ThreadPoolObserver {
  std::function<void(std::size_t depth)> on_queue_depth;
  std::function<void(std::size_t busy)> on_busy_workers;
  std::function<void(std::size_t worker, double busy_s)> on_worker_busy;
  std::function<void()> on_task_submitted;
};

class ThreadPool {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Spawns `threads` workers (>= 1). The pool is fixed-size for its
  /// lifetime; sizing policy belongs to the caller (RunInputs::threads).
  explicit ThreadPool(std::size_t threads, ThreadPoolObserver observer = {});

  /// Runs every task already queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// The hardware's thread count (std::thread::hardware_concurrency()), or 1
  /// where that is unknown. Callers that size a pool to the machine use this
  /// rather than touching std::thread themselves.
  static std::size_t hardware_threads();

  /// Enqueue `fn`; the future resolves once it has run (exceptions propagate
  /// through the future). Safe to call from any thread, including workers —
  /// but a worker blocking on a future of a task queued behind it deadlocks,
  /// so fan-out/join belongs on the submitting (simulator) thread.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Index of the calling pool worker in [0, size()), or npos off-pool.
  static std::size_t worker_index();

  /// The pool the calling thread works for, or nullptr off-pool.
  static const ThreadPool* current_pool();

  /// Tasks queued but not yet started.
  std::size_t queue_depth() const FLINT_EXCLUDES(mu_);

  /// Cumulative wall seconds worker `i` has spent inside task bodies.
  double busy_seconds(std::size_t i) const;

 private:
  void enqueue(std::function<void()> fn) FLINT_EXCLUDES(mu_);
  void worker_loop(std::size_t index) FLINT_EXCLUDES(mu_);

  ThreadPoolObserver observer_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ FLINT_GUARDED_BY(mu_);
  bool stop_ FLINT_GUARDED_BY(mu_) = false;
  std::size_t busy_ FLINT_GUARDED_BY(mu_) = 0;
  // Slot i is written only by worker i and read by anyone, so plain atomic
  // store/load suffices (unique_ptr because atomics are not movable).
  std::vector<std::unique_ptr<std::atomic<double>>> busy_s_;
  std::vector<std::thread> workers_;  // flint-lint: allow(raw-thread): the pool itself
};

}  // namespace flint::util
