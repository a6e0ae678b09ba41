// Session-log persistence. Production tooling exchanges session data as
// tabular exports ("most existing web services log session metrics and
// device information", §3.2); this CSV codec lets FLINT's analysis tools
// consume such exports and snapshot synthetic logs for reproducibility.
//
// Columns: client_id,device_index,start_s,end_s,wifi,battery_pct,foreground
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "flint/device/session_generator.h"

namespace flint::device {

/// Write a session log as CSV (with header). The client->device map is
/// reconstructed on read from the sessions themselves.
void write_session_log_csv(const std::string& path, const SessionLog& log);

/// Read a CSV written by write_session_log_csv (or produced externally with
/// the same schema). Sessions are re-sorted by start time.
SessionLog read_session_log_csv(const std::string& path);

/// Binary spill-chunk format for the streaming session generator
/// (session_stream.h): a fixed 41-byte host-endian record per session
/// behind a small magic+count header. Unlike the CSV codec this is an
/// internal scratch format — same-build write/read only, never exchanged —
/// so it favours exact double round-trips and sequential throughput.
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
