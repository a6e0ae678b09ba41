// Fixture: a closure event queue under src/flint/sim/ trips sim-events once
// per std::function or std::priority_queue line; this comment naming
// std::function does not, nor does the allow()ed line.
#pragma once

#include <functional>
#include <queue>

namespace flint::sim {

struct ClosureEvent {
  double time = 0.0;
  std::function<void()> fire;
};

struct Later {
  bool operator()(const ClosureEvent& a, const ClosureEvent& b) const { return a.time > b.time; }
};

using ClosureQueue = std::priority_queue<ClosureEvent, std::vector<ClosureEvent>, Later>;

// flint-lint: allow(sim-events): fixture for the suppression path
using Callback = std::function<void(int)>;

}  // namespace flint::sim
