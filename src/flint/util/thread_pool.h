// Fixed-size worker pool with help-on-join task handles — the substrate of
// FLINT's parallel client-training runtime.
//
// Help on join: submit() queues a task and returns a TaskHandle. A task is
// claimed with one atomic exchange by whichever comes first: a worker that
// pops it from the queue, or a caller that joins its handle. The winner runs
// it, so every task runs exactly once. A worker that loses the claim drops
// the task and pops the next one. A joiner that wins runs the task on its own
// thread instead of sleeping until a worker wakes up for it; a joiner that
// loses waits for the worker to finish, as with a future. A joiner only ever
// runs the task it joins, never another queued one.
//
// Determinism therefore never lives in the queue: callers impose any
// ordering that matters by consuming results in a fixed order (the fl
// runners fold client updates into the accumulator in task order, whatever
// order they join them in), and every task must compute the same result on
// whichever thread runs it (the runners' tasks are pure functions of their
// inputs). `--threads N`, and who wins a claim, can only change wall time,
// not results.
//
// util sits below flint::obs, so the pool does not record metrics itself;
// it reports queue depth, busy workers, and per-worker busy seconds through
// a ThreadPoolObserver that the creating layer wires to gauges
// (fl::TrainerPool publishes util.pool.* — see trainer_pool.cpp). Tasks a
// joiner runs are invisible to the observer: they are not pool work.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
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

namespace detail {

/// What the pool's queue and a TaskHandle share for one task: the claim,
/// the completion flag, and (in TaskResult<R>) the outcome.
class TaskState {
 public:
  virtual ~TaskState() = default;

  /// True for exactly one caller over the task's life; that caller runs it.
  bool claim() { return !claimed_.exchange(true, std::memory_order_acq_rel); }

  /// Run the body (the caller won claim()), then publish completion.
  void run() {
    execute();
    done_.store(true, std::memory_order_release);
    done_.notify_all();
  }

  /// Run the task here if nobody has claimed it, else wait until it is done.
  void join() {
    if (claim()) {
      run();
      return;
    }
    while (!done_.load(std::memory_order_acquire)) done_.wait(false, std::memory_order_acquire);
  }

 protected:
  /// Invoke the body and record its value or exception; never throws.
  virtual void execute() noexcept = 0;

 private:
  std::atomic<bool> claimed_{false};
  std::atomic<bool> done_{false};
};

/// A task's outcome: its return value or the exception it threw.
template <typename R>
class TaskResult : public TaskState {
 public:
  /// The value (or rethrown exception). Requires a completed join().
  R take() {
    if (error_) std::rethrow_exception(error_);
    if constexpr (!std::is_void_v<R>) return std::move(*value_);
  }

 protected:
  template <typename F>
  void capture(F& fn) noexcept {
    try {
      if constexpr (std::is_void_v<R>)
        fn();
      else
        value_.emplace(fn());
    } catch (...) {
      error_ = std::current_exception();
    }
  }

 private:
  struct NoValue {};
  std::conditional_t<std::is_void_v<R>, NoValue, std::optional<R>> value_;
  std::exception_ptr error_;
};

/// The task body. It is destroyed right after it runs, so what it captured
/// (a parameter snapshot, say) is released then, not when the handle dies.
template <typename R, typename F>
class Task final : public TaskResult<R> {
 public:
  explicit Task(F fn) : fn_(std::move(fn)) {}

 private:
  void execute() noexcept override {
    this->capture(*fn_);
    fn_.reset();
  }

  std::optional<F> fn_;
};

}  // namespace detail

/// The join side of one submitted task. One-shot: get() consumes it.
/// Dropping a handle without joining is fine; a worker still runs the task.
template <typename R>
class TaskHandle {
 public:
  TaskHandle() = default;

  /// True until get() consumes the handle.
  bool valid() const { return state_ != nullptr; }

  /// Run the task on this thread if no worker has started it, else wait for
  /// the worker to finish it. Requires valid().
  void wait() {
    FLINT_CHECK_MSG(valid(), "TaskHandle::wait() on an empty handle");
    state_->join();
  }

  /// wait(), then return the task's value, or rethrow what it threw.
  R get() {
    wait();
    std::shared_ptr<detail::TaskResult<R>> state = std::move(state_);
    return state->take();
  }

 private:
  friend class ThreadPool;
  explicit TaskHandle(std::shared_ptr<detail::TaskResult<R>> state) : state_(std::move(state)) {}

  std::shared_ptr<detail::TaskResult<R>> state_;
};

class ThreadPool {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Spawns `threads` workers (>= 1). The pool is fixed-size for its
  /// lifetime; sizing policy belongs to the caller (RunInputs::threads).
  explicit ThreadPool(std::size_t threads, ThreadPoolObserver observer = {});

  /// Runs every task already queued and still unclaimed, then joins the
  /// workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// The hardware's thread count (std::thread::hardware_concurrency()), or 1
  /// where that is unknown. Callers that size a pool to the machine use this
  /// rather than touching std::thread themselves.
  static std::size_t hardware_threads();

  /// Enqueue `fn` and return its handle (exceptions propagate through
  /// get()). Safe to call from any thread, including workers. `fn` runs on a
  /// worker or on whichever thread joins it first, so it must not depend on
  /// which: a worker that joins a task queued behind itself runs that task
  /// inline rather than deadlocking.
  template <typename F>
  auto submit(F&& fn) -> TaskHandle<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<detail::Task<R, std::decay_t<F>>>(std::forward<F>(fn));
    enqueue(task);
    return TaskHandle<R>(std::move(task));
  }

  /// Index of the calling pool worker in [0, size()), or npos off-pool. A
  /// task run by its joiner sees the joiner's index.
  static std::size_t worker_index();

 private:
  void enqueue(std::shared_ptr<detail::TaskState> task) FLINT_EXCLUDES(mu_);
  void worker_loop(std::size_t index) FLINT_EXCLUDES(mu_);

  ThreadPoolObserver observer_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<detail::TaskState>> queue_ FLINT_GUARDED_BY(mu_);
  bool stop_ FLINT_GUARDED_BY(mu_) = false;
  std::size_t busy_ FLINT_GUARDED_BY(mu_) = 0;
  // Cumulative wall seconds worker i has spent inside task bodies, reported
  // through on_worker_busy. Slot i is touched only by worker i.
  std::vector<double> busy_s_;
  std::vector<std::thread> workers_;  // flint-lint: allow(raw-thread): the pool itself
};

}  // namespace flint::util
