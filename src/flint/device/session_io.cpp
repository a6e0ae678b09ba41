#include "flint/device/session_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "flint/util/check.h"

namespace flint::device {

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
