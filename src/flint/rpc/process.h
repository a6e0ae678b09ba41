// Child-process management for multi-process runs: the leader fork/execs one
// `flint_executor` per requested worker and reaps them at shutdown. Kept
// inside rpc/ so process plumbing (like raw sockets) never leaks into the
// simulation layers.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace flint::rpc {

/// One spawned executor child.
class SpawnedProcess {
 public:
  /// fork/exec `argv[0]` with the given argument list. Throws CheckError if
  /// the fork fails; exec failure surfaces as the child exiting 127.
  explicit SpawnedProcess(const std::vector<std::string>& argv);

  SpawnedProcess(SpawnedProcess&&) = delete;
  SpawnedProcess& operator=(SpawnedProcess&&) = delete;
  SpawnedProcess(const SpawnedProcess&) = delete;
  SpawnedProcess& operator=(const SpawnedProcess&) = delete;

  /// Reaps the child: grants a grace window for an orderly exit (the leader
  /// has sent Shutdown by then, and the executor may still be flushing its
  /// telemetry files), then SIGKILLs whatever is left.
  ~SpawnedProcess();

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0 && !reaped_; }

  /// SIGKILL the child (no-op if already reaped). The fault tests use this
  /// to simulate executor death mid-round.
  void kill();

  /// Blocking waitpid; returns the raw wait status (0 if already reaped).
  int wait();

  /// Non-blocking reap loop: polls for up to `timeout_s` seconds, returning
  /// true once the child exited (and was reaped). Returns false — child
  /// still alive, not reaped — on timeout.
  bool wait_for_exit(double timeout_s);

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
};

}  // namespace flint::rpc
