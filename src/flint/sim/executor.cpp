#include "flint/sim/executor.h"

#include "flint/util/check.h"

namespace flint::sim {

ExecutorPool::ExecutorPool(std::size_t count)
    : count_(count), task_counters_(count) {
  FLINT_CHECK(count > 0);
  task_counter_names_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    task_counter_names_.push_back("sim.executor." + std::to_string(i) + ".tasks");
}

std::size_t ExecutorPool::executor_of(std::uint64_t client) const {
  return static_cast<std::size_t>(client % count_);
}

void ExecutorPool::add_outage(ExecutorOutage outage) {
  FLINT_CHECK(outage.executor < count_);
  FLINT_CHECK(outage.end > outage.start);
  outages_.push_back(outage);
}

VirtualTime ExecutorPool::next_all_healthy(VirtualTime t) const {
  // Advance past overlapping outages until a fixed point.
  VirtualTime cur = t;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& o : outages_) {
      if (cur >= o.start && cur < o.end) {
        cur = o.end;
        moved = true;
      }
    }
  }
  return cur;
}

void ExecutorPool::record_task(std::size_t executor) {
  FLINT_CHECK(executor < count_);
  if (auto* c = task_counters_[executor].resolve(task_counter_names_[executor].c_str()))
    c->add(1);
}

}  // namespace flint::sim
