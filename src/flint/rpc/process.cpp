#include "flint/rpc/process.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "flint/util/check.h"

namespace flint::rpc {

SpawnedProcess::SpawnedProcess(const std::vector<std::string>& argv) {
  FLINT_CHECK_GT(argv.size(), std::size_t{0});
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);
  pid_t pid = ::fork();
  FLINT_CHECK_MSG(pid >= 0, "fork() failed: " << std::strerror(errno));
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    // Exec failed; nothing of the parent's state is safe to touch.
    ::_exit(127);
  }
  pid_ = pid;
}

SpawnedProcess::~SpawnedProcess() {
  if (!running()) return;
  // A cooperative child (Shutdown already delivered) exits on its own but may
  // still be writing trace/metrics files; killing it instantly would truncate
  // them. Only a child that outlives the grace window is forced down.
  if (!wait_for_exit(/*timeout_s=*/10.0)) {
    kill();
    wait();
  }
}

void SpawnedProcess::kill() {
  if (!running()) return;
  ::kill(pid_, SIGKILL);
}

bool SpawnedProcess::wait_for_exit(double timeout_s) {
  if (!running()) return true;
  constexpr long kPollUs = 10 * 1000;
  long budget_us = static_cast<long>(timeout_s * 1e6);
  while (true) {
    int status = 0;
    pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc == pid_ || (rc < 0 && errno != EINTR)) {
      reaped_ = true;
      return true;
    }
    if (budget_us <= 0) return false;
    ::usleep(kPollUs);
    budget_us -= kPollUs;
  }
}

int SpawnedProcess::wait() {
  if (!running()) return 0;
  int status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(pid_, &status, 0);
  } while (rc < 0 && errno == EINTR);
  reaped_ = true;
  return rc == pid_ ? status : 0;
}

}  // namespace flint::rpc
