#include "cpus.h"

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace perfbench {
namespace {

void set_affinity(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  // Best effort, like every affinity change here: a thread that ended
  // meanwhile simply fails the call.
  ::sched_setaffinity(tid, sizeof(set), &set);
}

/// Thread ids of process `pid` (0: this process), ascending, without `except`.
std::vector<pid_t> threads_of(pid_t pid, pid_t except) {
  std::string dir = pid == 0 ? "/proc/self/task" : "/proc/" + std::to_string(pid) + "/task";
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    pid_t tid = static_cast<pid_t>(std::stol(entry.path().filename().string()));
    if (tid != except) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

}  // namespace

std::vector<int> usable_cpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  return cpus;
}

CpuRotation::CpuRotation(std::vector<Member> members)
    : members_(std::move(members)), cpus_(usable_cpus()) {
  if (cpus_.size() > 1) rotator_ = std::thread([this] { rotate(); });
}

CpuRotation::~CpuRotation() {
  if (!rotator_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  rotator_.join();
  for (const Group& group : groups(0))
    for (pid_t tid : group.tids) set_affinity(tid, cpus_);
}

std::vector<CpuRotation::Group> CpuRotation::groups(pid_t rotator) const {
  std::vector<Group> out;
  if (members_.empty()) {
    for (pid_t tid : threads_of(0, rotator)) out.push_back({{tid}, 1});
    return out;
  }
  for (const Member& m : members_) out.push_back({threads_of(m.pid, rotator), m.width});
  return out;
}

void CpuRotation::rotate() {
  const pid_t self = static_cast<pid_t>(::syscall(SYS_gettid));
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t step = 0; !stop_; ++step) {
    std::size_t next = step;
    for (const Group& group : groups(self)) {
      std::vector<int> window;
      for (std::size_t i = 0; i < group.width; ++i) window.push_back(cpus_[next++ % cpus_.size()]);
      for (pid_t tid : group.tids) set_affinity(tid, window);
    }
    cv_.wait_for(lock, std::chrono::milliseconds(20), [this] { return stop_; });
  }
}

}  // namespace perfbench
