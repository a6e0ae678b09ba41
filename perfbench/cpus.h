// CPU rotation: how the benchmark keeps one slow core from deciding a run.
// README.md ("CPU placement") has the measurements behind it.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// The CPUs this process may run on, in ascending order.
std::vector<int> usable_cpus();

/// While it lives, moves threads to other usable CPUs every 20 ms, and gives
/// them all of them back when it ends. On a shared host one core can run 50%
/// slower for seconds at a time (a busy SMT sibling), and a thread that stays
/// on that core inherits its luck for a whole repetition; rotating spreads
/// every repetition evenly over the cores.
class CpuRotation {
 public:
  /// A process whose threads all share a window of `width` consecutive
  /// CPUs; pid 0 is this process.
  struct Member {
    pid_t pid = 0;
    std::size_t width = 1;
  };

  /// With no members, every thread of this process (as it is at each step)
  /// gets a CPU of its own where there are enough. Otherwise the members'
  /// windows are laid side by side and shifted by one CPU every step.
  explicit CpuRotation(std::vector<Member> members = {});
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  /// Threads moved together, and how many CPUs they share.
  struct Group {
    std::vector<pid_t> tids;
    std::size_t width;
  };

  std::vector<Group> groups(pid_t rotator) const;
  void rotate();

  std::vector<Member> members_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread rotator_;
};

}  // namespace perfbench
