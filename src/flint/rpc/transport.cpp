#include "flint/rpc/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "flint/obs/telemetry.h"
#include "flint/util/check.h"

namespace flint::rpc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_until(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

/// Write what the socket accepts right now, from `data`, into `written`.
/// Returns false if the peer is gone.
bool write_available(int fd, const char* kind, const char* data, std::size_t size,
                     std::size_t& written) {
  written = 0;
  while (written < size) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not a process-killing
    // SIGPIPE — the leader survives executor death by design. MSG_DONTWAIT:
    // a full socket ends the write instead of blocking the caller.
    ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      FLINT_CHECK_MSG(false, "send() on " << kind << " transport failed: "
                                          << std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void set_cloexec(int fd) {
  int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

}  // namespace

// ---------------------------------------------------------------------------
// LoopbackTransport

struct LoopbackTransport::Shared {
  util::Mutex mu;
  util::CondVar cv;
  /// queue[i] holds wire bytes awaiting endpoint i's recv().
  std::array<std::vector<char>, 2> queue FLINT_GUARDED_BY(mu);
  std::array<bool, 2> closed FLINT_GUARDED_BY(mu) = {false, false};
};

std::pair<std::unique_ptr<LoopbackTransport>, std::unique_ptr<LoopbackTransport>>
LoopbackTransport::make_pair() {
  auto shared = std::make_shared<Shared>();
  return {std::unique_ptr<LoopbackTransport>(new LoopbackTransport(shared, 0)),
          std::unique_ptr<LoopbackTransport>(new LoopbackTransport(shared, 1))};
}

LoopbackTransport::LoopbackTransport(std::shared_ptr<Shared> shared, int side)
    : shared_(std::move(shared)), side_(side) {}

LoopbackTransport::~LoopbackTransport() { close(); }

bool LoopbackTransport::send(const Frame& frame) {
  encode_frame(frame, wire_);
  {
    util::MutexLock lock(shared_->mu);
    if (shared_->closed[1 - side_] || shared_->closed[side_]) return false;
    std::vector<char>& peer_queue = shared_->queue[1 - side_];
    peer_queue.insert(peer_queue.end(), wire_.begin(), wire_.end());
    shared_->cv.notify_all();
  }
  obs::add_counter("rpc.bytes_sent", wire_.size());
  return true;
}

RecvStatus LoopbackTransport::recv(Frame& out, double timeout_s) {
  // Frames already buffered in the decoder win over new bytes and even over
  // a concurrent close — drain before reporting kClosed.
  if (decoder_.next(out)) return RecvStatus::kFrame;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::vector<char>& bytes = inbox_;
  for (;;) {
    // The swap below hands the queue this endpoint's emptied inbox, so the
    // two buffers trade places and both keep their capacity.
    bytes.clear();
    bool closed = false;
    {
      util::MutexLock lock(shared_->mu);
      for (;;) {
        if (!shared_->queue[side_].empty()) {
          bytes.swap(shared_->queue[side_]);
          break;
        }
        if (shared_->closed[side_] || shared_->closed[1 - side_]) {
          closed = true;
          break;
        }
        double remaining = seconds_until(deadline);
        if (remaining <= 0.0) return RecvStatus::kTimeout;
        shared_->cv.wait_for(shared_->mu, remaining);
      }
    }
    if (!bytes.empty()) {
      obs::add_counter("rpc.bytes_received", bytes.size());
      decoder_.feed(bytes.data(), bytes.size());
      if (decoder_.next(out)) return RecvStatus::kFrame;
      continue;  // partial frame: wait for the rest
    }
    if (closed) return RecvStatus::kClosed;
  }
}

void LoopbackTransport::close() {
  util::MutexLock lock(shared_->mu);
  shared_->closed[side_] = true;
  shared_->cv.notify_all();
}

// ---------------------------------------------------------------------------
// SocketTransport

SocketTransport::SocketTransport(int fd, const char* kind) : fd_(fd), kind_(kind) {
  FLINT_CHECK_GE(fd, 0);
  set_cloexec(fd);
}

SocketTransport::~SocketTransport() { close(); }

bool SocketTransport::send(const Frame& frame) {
  if (fd_ < 0 || !flush_outbox()) return false;
  encode_frame(frame, wire_);
  std::size_t written = 0;
  // A frame goes straight to the wire only behind an empty outbox; otherwise
  // it queues whole, so frames leave in the order they were sent.
  if (outbox_.empty() && !write_available(fd_, kind_, wire_.data(), wire_.size(), written))
    return false;
  outbox_.insert(outbox_.end(), wire_.begin() + static_cast<std::ptrdiff_t>(written),
                 wire_.end());
  obs::add_counter("rpc.bytes_sent", wire_.size());
  return true;
}

bool SocketTransport::flush_outbox() {
  if (outbox_.empty()) return true;
  std::size_t written = 0;
  if (!write_available(fd_, kind_, outbox_.data(), outbox_.size(), written)) {
    outbox_.clear();
    return false;
  }
  outbox_.erase(outbox_.begin(), outbox_.begin() + static_cast<std::ptrdiff_t>(written));
  return true;
}

RecvStatus SocketTransport::recv(Frame& out, double timeout_s) {
  if (decoder_.next(out)) return RecvStatus::kFrame;
  if (fd_ < 0) return RecvStatus::kClosed;
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  char buf[65536];
  for (;;) {
    double remaining = seconds_until(deadline);
    if (remaining < 0.0) remaining = 0.0;
    struct pollfd pfd;
    pfd.fd = fd_;
    // Waiting to read is also the time to drain the outbox: the peer may be
    // reading only because we are.
    pfd.events = static_cast<short>(POLLIN | (outbox_.empty() ? 0 : POLLOUT));
    pfd.revents = 0;
    int timeout_ms = static_cast<int>(remaining * 1000.0);
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      FLINT_CHECK_MSG(false, "poll() on " << kind_ << " transport failed: "
                                          << std::strerror(errno));
    }
    if (ready == 0) return RecvStatus::kTimeout;
    if ((pfd.revents & POLLOUT) != 0 && !flush_outbox()) return RecvStatus::kClosed;
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;  // writable only
    ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == ECONNRESET) return RecvStatus::kClosed;
      FLINT_CHECK_MSG(false, "recv() on " << kind_ << " transport failed: "
                                          << std::strerror(errno));
    }
    if (n == 0) return RecvStatus::kClosed;  // EOF; any partial frame is moot
    obs::add_counter("rpc.bytes_received", static_cast<std::uint64_t>(n));
    decoder_.feed(buf, static_cast<std::size_t>(n));
    if (decoder_.next(out)) return RecvStatus::kFrame;
  }
}

void SocketTransport::close() {
  if (fd_ < 0) return;
  flush_outbox();  // best effort: whatever the socket takes without blocking
  outbox_.clear();
  ::shutdown(fd_, SHUT_RDWR);
  ::close(fd_);
  fd_ = -1;
}

// ---------------------------------------------------------------------------
// Connectors

std::unique_ptr<Transport> connect_unix(const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  FLINT_CHECK_MSG(path.size() < sizeof(addr.sun_path),
                  "unix socket path too long (" << path.size() << " bytes): " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FLINT_CHECK_MSG(fd >= 0, "socket(AF_UNIX) failed: " << std::strerror(errno));
  int rc;
  do {
    // flint-lint: allow(byte-punning): the sockaddr* cast the POSIX API requires
    rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    int saved = errno;
    ::close(fd);
    FLINT_CHECK_MSG(false, "connect(" << path << ") failed: " << std::strerror(saved));
  }
  return std::make_unique<SocketTransport>(fd, "unix");
}

std::unique_ptr<Transport> connect_tcp(const std::string& host, std::uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  FLINT_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                  "not an IPv4 address: " << host);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  FLINT_CHECK_MSG(fd >= 0, "socket(AF_INET) failed: " << std::strerror(errno));
  int rc;
  do {
    // flint-lint: allow(byte-punning): the sockaddr* cast the POSIX API requires
    rc = ::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    int saved = errno;
    ::close(fd);
    FLINT_CHECK_MSG(false, "connect(" << host << ":" << port
                                      << ") failed: " << std::strerror(saved));
  }
  return std::make_unique<SocketTransport>(fd, "tcp");
}

// ---------------------------------------------------------------------------
// Listener

Listener::Listener(int fd, const char* kind, std::string path, std::uint16_t port)
    : fd_(fd), kind_(kind), path_(std::move(path)), port_(port) {
  set_cloexec(fd);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), kind_(other.kind_), path_(std::move(other.path_)), port_(other.port_) {
  other.fd_ = -1;
  other.path_.clear();
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

Listener Listener::listen_unix(const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  FLINT_CHECK_MSG(path.size() < sizeof(addr.sun_path),
                  "unix socket path too long (" << path.size() << " bytes): " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // a stale socket from a dead leader must not block bind
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FLINT_CHECK_MSG(fd >= 0, "socket(AF_UNIX) failed: " << std::strerror(errno));
  // flint-lint: allow(byte-punning): the sockaddr* cast the POSIX API requires
  if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    int saved = errno;
    ::close(fd);
    FLINT_CHECK_MSG(false, "bind(" << path << ") failed: " << std::strerror(saved));
  }
  if (::listen(fd, 16) < 0) {
    int saved = errno;
    ::close(fd);
    FLINT_CHECK_MSG(false, "listen(" << path << ") failed: " << std::strerror(saved));
  }
  return Listener(fd, "unix", path, 0);
}

Listener Listener::listen_tcp(std::uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  FLINT_CHECK_MSG(fd >= 0, "socket(AF_INET) failed: " << std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // flint-lint: allow(byte-punning): the sockaddr* cast the POSIX API requires
  if (::bind(fd, reinterpret_cast<const struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    int saved = errno;
    ::close(fd);
    FLINT_CHECK_MSG(false, "bind(127.0.0.1:" << port << ") failed: " << std::strerror(saved));
  }
  if (::listen(fd, 16) < 0) {
    int saved = errno;
    ::close(fd);
    FLINT_CHECK_MSG(false, "listen(127.0.0.1:" << port
                                               << ") failed: " << std::strerror(saved));
  }
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  std::uint16_t actual = port;
  // flint-lint: allow(byte-punning): the sockaddr* cast the POSIX API requires
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) == 0)
    actual = ntohs(bound.sin_port);
  return Listener(fd, "tcp", "", actual);
}

std::unique_ptr<Transport> Listener::accept(double timeout_s) {
  FLINT_CHECK_GE(fd_, 0);
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    double remaining = seconds_until(deadline);
    if (remaining < 0.0) remaining = 0.0;
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, static_cast<int>(remaining * 1000.0));
    if (ready < 0) {
      if (errno == EINTR) continue;
      FLINT_CHECK_MSG(false, "poll() on " << kind_ << " listener failed: "
                                          << std::strerror(errno));
    }
    if (ready == 0) return nullptr;
    int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      FLINT_CHECK_MSG(false, "accept() on " << kind_ << " listener failed: "
                                            << std::strerror(errno));
    }
    return std::make_unique<SocketTransport>(client, kind_);
  }
}

}  // namespace flint::rpc
