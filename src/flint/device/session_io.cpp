#include "flint/device/session_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "flint/util/check.h"
#include "flint/util/csv.h"

namespace flint::device {

void write_session_log_csv(const std::string& path, const SessionLog& log) {
  util::CsvFile file(path);
  FLINT_CHECK_MSG(file.ok(), "cannot write " << path);
  file.write_row({"client_id", "device_index", "start_s", "end_s", "wifi", "battery_pct",
                  "foreground"});
  for (const auto& s : log.sessions) {
    file.write_row({std::to_string(s.client_id), std::to_string(s.device_index),
                    std::to_string(s.start), std::to_string(s.end), s.wifi ? "1" : "0",
                    std::to_string(s.battery_pct), s.foreground ? "1" : "0"});
  }
}

// The CSV format is keyed by the (verified) header row and parsed through
// indexed cells, not a positional walk; the reader also rebuilds
// client_device, which is derived state the writer never stores.
// flint-analyze: allow(save-load-symmetry): header-keyed CSV, not a positional walk
SessionLog read_session_log_csv(const std::string& path) {
  std::ifstream in(path);
  FLINT_CHECK_MSG(in.good(), "cannot read " << path);
  std::string line;
  FLINT_CHECK_MSG(static_cast<bool>(std::getline(in, line)), "empty session CSV " << path);
  auto header = util::parse_csv_line(line);
  FLINT_CHECK_MSG(header.size() == 7 && header[0] == "client_id",
                  "unexpected session CSV header in " << path);

  SessionLog log;
  std::uint64_t max_client = 0;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto cells = util::parse_csv_line(line);
    FLINT_CHECK_MSG(cells.size() == 7, "bad session row at " << path << ":" << lineno);
    Session s;
    s.client_id = std::stoull(cells[0]);
    s.device_index = std::stoul(cells[1]);
    s.start = std::stod(cells[2]);
    s.end = std::stod(cells[3]);
    s.wifi = cells[4] == "1";
    s.battery_pct = std::stod(cells[5]);
    s.foreground = cells[6] == "1";
    FLINT_CHECK_MSG(s.end > s.start, "non-positive session at " << path << ":" << lineno);
    max_client = std::max(max_client, s.client_id);
    log.sessions.push_back(s);
  }
  std::sort(log.sessions.begin(), log.sessions.end(), session_order);
  // Rebuild the client->device map from the observed sessions (last write
  // wins, matching how a device upgrade would appear in real logs).
  log.client_device.assign(max_client + 1, 0);
  for (const auto& s : log.sessions) log.client_device[s.client_id] = s.device_index;
  return log;
}

namespace {

constexpr std::uint64_t kChunkMagic = 0x464C534E43484Bull;  // "FLSNCHK"
constexpr std::size_t kRecordBytes = 8 + 8 + 8 + 8 + 8 + 1;
/// Records a writer packs before handing them to the stream in one write.
constexpr std::size_t kWriteBatchRecords = 1024;

void pack_session(const Session& s, char* rec) {
  std::uint64_t client = s.client_id;
  std::uint64_t device = s.device_index;
  std::memcpy(rec, &client, 8);
  std::memcpy(rec + 8, &device, 8);
  std::memcpy(rec + 16, &s.start, 8);
  std::memcpy(rec + 24, &s.end, 8);
  std::memcpy(rec + 32, &s.battery_pct, 8);
  rec[40] = static_cast<char>((s.wifi ? 1 : 0) | (s.foreground ? 2 : 0));
}

Session unpack_session(const char* rec) {
  Session s;
  std::uint64_t client = 0;
  std::uint64_t device = 0;
  std::memcpy(&client, rec, 8);
  std::memcpy(&device, rec + 8, 8);
  std::memcpy(&s.start, rec + 16, 8);
  std::memcpy(&s.end, rec + 24, 8);
  std::memcpy(&s.battery_pct, rec + 32, 8);
  s.client_id = client;
  s.device_index = static_cast<std::size_t>(device);
  auto flags = static_cast<unsigned char>(rec[40]);
  s.wifi = (flags & 1u) != 0;
  s.foreground = (flags & 2u) != 0;
  return s;
}

void write_u64(std::ofstream& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.write(buf, 8);
}

std::uint64_t read_u64(std::ifstream& in) {
  char buf[8] = {};
  in.read(buf, 8);
  std::uint64_t v = 0;
  std::memcpy(&v, buf, 8);
  return v;
}

}  // namespace

SessionChunkWriter::SessionChunkWriter(const std::string& path)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      batch_(kWriteBatchRecords * kRecordBytes) {
  FLINT_CHECK_MSG(out_.good(), "cannot write session chunk " << path_);
  write_u64(out_, kChunkMagic);
  write_u64(out_, 0);  // count, patched by finish()
}

SessionChunkWriter::~SessionChunkWriter() {
  if (!finished_) finish();
}

void SessionChunkWriter::add(const Session& s) {
  FLINT_CHECK_MSG(!finished_, "add() after finish() on chunk " << path_);
  if (batch_used_ == batch_.size()) flush_batch();
  pack_session(s, batch_.data() + batch_used_);
  batch_used_ += kRecordBytes;
  ++count_;
}

void SessionChunkWriter::flush_batch() {
  out_.write(batch_.data(), static_cast<std::streamsize>(batch_used_));
  batch_used_ = 0;
}

void SessionChunkWriter::finish() {
  if (finished_) return;
  finished_ = true;
  flush_batch();
  out_.seekp(8);
  write_u64(out_, static_cast<std::uint64_t>(count_));
  out_.flush();
  FLINT_CHECK_MSG(out_.good(), "failed writing session chunk " << path_);
}

SessionChunkReader::SessionChunkReader(const std::string& path, std::size_t buffer_sessions)
    : path_(path), in_(path, std::ios::binary), buffer_sessions_(std::max<std::size_t>(1, buffer_sessions)) {
  FLINT_CHECK_MSG(in_.good(), "cannot read session chunk " << path_);
  std::uint64_t magic = read_u64(in_);
  std::uint64_t count = read_u64(in_);
  FLINT_CHECK_MSG(in_.good() && magic == kChunkMagic, "bad session chunk header in " << path_);
  count_ = static_cast<std::size_t>(count);
}

std::optional<Session> SessionChunkReader::next() {
  if (buffer_pos_ == buffer_.size()) {
    if (consumed_ == count_) return std::nullopt;
    refill();
  }
  return buffer_[buffer_pos_++];
}

void SessionChunkReader::refill() {
  std::size_t want = std::min(buffer_sessions_, count_ - consumed_);
  std::vector<char> raw(want * kRecordBytes);
  in_.read(raw.data(), static_cast<std::streamsize>(raw.size()));
  FLINT_CHECK_MSG(in_.gcount() == static_cast<std::streamsize>(raw.size()),
                  "truncated session chunk " << path_);
  buffer_.clear();
  buffer_.reserve(want);
  for (std::size_t i = 0; i < want; ++i) buffer_.push_back(unpack_session(raw.data() + i * kRecordBytes));
  consumed_ += want;
  buffer_pos_ = 0;
}

}  // namespace flint::device
