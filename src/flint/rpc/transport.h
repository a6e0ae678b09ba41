// Frame transports for the leader/executor wire (DESIGN.md §14).
//
// Three implementations of one interface:
//   - LoopbackTransport: an in-process byte pipe. Frames are still fully
//     encoded and decoded (CRC and all), so loopback runs exercise the exact
//     wire path multi-process runs do — only the file descriptor is missing.
//   - Unix-socket / TCP: both are SocketTransport over a connected stream fd;
//     connect_unix/connect_tcp and Listener::listen_unix/listen_tcp choose
//     the address family.
//
// Error model: send() returns false when the peer is gone (closed, EPIPE,
// ECONNRESET) — the leader treats that executor as dead and re-dispatches.
// send() never blocks: what the peer cannot take yet waits in order in the
// sender's outbox (an in-memory queue for loopback, a per-socket buffer that
// recv() flushes for sockets), so two peers that both send before they read
// cannot wedge each other.
// recv() returns kTimeout/kClosed for the benign cases and throws CheckError
// for malformed bytes (bad magic, CRC mismatch, oversized length): a corrupt
// peer is a protocol violation, not a recoverable condition.
//
// This is the only directory where raw socket calls are allowed
// (tools/flint_lint.py `rpc` rule); everything above speaks Frame.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flint/rpc/frame.h"
#include "flint/util/thread_annotations.h"

namespace flint::rpc {

enum class RecvStatus {
  kFrame,    ///< a complete frame was produced
  kTimeout,  ///< nothing arrived within the timeout
  kClosed,   ///< peer closed the connection (EOF)
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Queue one frame to the peer. Returns false if the peer is gone; the
  /// frame is dropped in that case. Thread-compatible: one sender at a time.
  virtual bool send(const Frame& frame) = 0;

  /// Receive the next frame, waiting up to `timeout_s` (0 polls). Throws
  /// CheckError on malformed wire bytes.
  virtual RecvStatus recv(Frame& out, double timeout_s) = 0;

  /// Close this endpoint; pending recv() on the peer sees kClosed.
  virtual void close() = 0;

  /// "loopback", "unix", or "tcp" — for diagnostics and obs labels.
  virtual const char* kind() const = 0;
};

/// In-process transport: a pair of endpoints over shared byte queues.
class LoopbackTransport final : public Transport {
 public:
  /// Two connected endpoints; send() on one is recv()'d on the other. Either
  /// side may be handed to another thread (the queues are mutex-guarded).
  static std::pair<std::unique_ptr<LoopbackTransport>, std::unique_ptr<LoopbackTransport>>
  make_pair();

  ~LoopbackTransport() override;
  bool send(const Frame& frame) override;
  RecvStatus recv(Frame& out, double timeout_s) override;
  void close() override;
  const char* kind() const override { return "loopback"; }

 private:
  struct Shared;
  LoopbackTransport(std::shared_ptr<Shared> shared, int side);

  std::shared_ptr<Shared> shared_;
  int side_;              ///< 0 or 1: which end of the pipe this endpoint is
  FrameDecoder decoder_;  ///< touched only by this endpoint's receiving thread
  std::vector<char> inbox_;  ///< bytes taken from the queue; receiving thread only
  std::vector<char> wire_;   ///< the frame being sent, kept for its capacity
};

/// Stream-socket transport over a connected fd (AF_UNIX or AF_INET).
///
/// send() writes what the socket accepts right now (MSG_DONTWAIT) and queues
/// the rest in an outbox; later frames go behind it, so frame order holds.
/// recv() also polls for writability while the outbox is non-empty and
/// flushes it as the socket drains; close() makes one last non-blocking
/// flush. A peer found dead while flushing surfaces as send() == false or
/// recv() == kClosed.
class SocketTransport final : public Transport {
 public:
  /// Takes ownership of a connected stream socket.
  SocketTransport(int fd, const char* kind);
  ~SocketTransport() override;

  bool send(const Frame& frame) override;
  RecvStatus recv(Frame& out, double timeout_s) override;
  void close() override;
  const char* kind() const override { return kind_; }

 private:
  /// Write as much of the outbox as the socket takes without blocking.
  /// Returns false (and drops the outbox) if the peer is gone.
  bool flush_outbox();

  int fd_;
  const char* kind_;
  FrameDecoder decoder_;
  std::vector<char> wire_;    ///< the frame being sent, kept for its capacity
  std::vector<char> outbox_;  ///< encoded bytes not yet accepted by the socket
};

/// Connect to a leader's Unix-domain socket at `path`. Throws CheckError if
/// the connect fails.
std::unique_ptr<Transport> connect_unix(const std::string& path);

/// Connect to a leader's TCP endpoint. Throws CheckError on failure.
std::unique_ptr<Transport> connect_tcp(const std::string& host, std::uint16_t port);

/// Listening socket the leader accepts executor connections on.
class Listener {
 public:
  /// Bind + listen on a Unix-domain socket (unlinks a stale path first).
  static Listener listen_unix(const std::string& path);
  /// Bind + listen on 127.0.0.1:`port` (0 picks an ephemeral port).
  static Listener listen_tcp(std::uint16_t port);

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&&) = delete;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Accept one connection, waiting up to `timeout_s`; nullptr on timeout.
  std::unique_ptr<Transport> accept(double timeout_s);

  /// The bound TCP port (resolves 0 -> the ephemeral port); 0 for Unix.
  std::uint16_t port() const { return port_; }

  /// The Unix-socket path ("" for TCP).
  const std::string& path() const { return path_; }

 private:
  Listener(int fd, const char* kind, std::string path, std::uint16_t port);

  int fd_;
  const char* kind_;
  std::string path_;
  std::uint16_t port_;
};

}  // namespace flint::rpc
