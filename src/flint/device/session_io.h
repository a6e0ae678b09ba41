// Session-log persistence: the binary spill-chunk format the streaming
// session generator writes and merges back (session_stream.h).
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "flint/device/session_generator.h"

namespace flint::device {

/// Binary spill-chunk format: a fixed 41-byte host-endian record per session
/// behind a small magic+count header. An internal scratch format — same-build
/// write/read only, never exchanged — so it favours exact double round-trips
/// and sequential throughput.
class SessionChunkWriter {
 public:
  explicit SessionChunkWriter(const std::string& path);
  ~SessionChunkWriter();
  SessionChunkWriter(const SessionChunkWriter&) = delete;
  SessionChunkWriter& operator=(const SessionChunkWriter&) = delete;

  /// Append one session to the chunk.
  void add(const Session& s);
  /// Patch the header count and flush. Called by the destructor if omitted.
  void finish();
  std::size_t count() const { return count_; }

 private:
  void flush_batch();

  std::string path_;
  std::ofstream out_;
  std::vector<char> batch_;  ///< packed records not yet handed to out_
  std::size_t batch_used_ = 0;
  std::size_t count_ = 0;
  bool finished_ = false;
};

/// Buffered sequential reader over a finished chunk file.
class SessionChunkReader {
 public:
  explicit SessionChunkReader(const std::string& path, std::size_t buffer_sessions = 4096);

  /// The next session, or nullopt at end of chunk.
  std::optional<Session> next();
  std::size_t count() const { return count_; }

 private:
  void refill();

  std::string path_;
  std::ifstream in_;
  std::size_t count_ = 0;
  std::size_t consumed_ = 0;
  std::size_t buffer_sessions_;
  std::vector<Session> buffer_;
  std::size_t buffer_pos_ = 0;
};

}  // namespace flint::device
