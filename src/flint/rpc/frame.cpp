#include "flint/rpc/frame.h"

#include "flint/util/bytes.h"
#include "flint/util/check.h"
#include "flint/util/crc32.h"

namespace flint::rpc {

namespace {

bool known_type(std::uint16_t raw) {
  return raw >= static_cast<std::uint16_t>(MessageType::kRegisterExecutor) &&
         raw <= static_cast<std::uint16_t>(MessageType::kShutdown);
}

}  // namespace

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kRegisterExecutor: return "RegisterExecutor";
    case MessageType::kRegisterAck: return "RegisterAck";
    case MessageType::kHeartbeat: return "Heartbeat";
    case MessageType::kTaskLease: return "TaskLease";
    case MessageType::kTaskResult: return "TaskResult";
    case MessageType::kShutdown: return "Shutdown";
  }
  return "Unknown";
}

std::vector<char> encode_frame(const Frame& frame) {
  FLINT_CHECK_LE(frame.payload.size(), static_cast<std::size_t>(kMaxFramePayload));
  std::vector<char> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
  util::append_pod(out, kFrameMagic);
  util::append_pod(out, kProtocolVersion);
  util::append_pod(out, static_cast<std::uint16_t>(frame.type));
  util::append_pod(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  // CRC over everything after the magic: protocol, type, length, payload.
  std::uint32_t crc = util::crc32(out.data() + sizeof(std::uint32_t),
                                  out.size() - sizeof(std::uint32_t));
  util::append_pod(out, crc);
  return out;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
  std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::nullopt;

  // Header first: validate magic / protocol / type / length before waiting
  // for (or trusting) any payload byte.
  std::size_t offset = consumed_;
  auto magic = util::read_pod<std::uint32_t>(buffer_, offset);
  FLINT_CHECK_MSG(magic == kFrameMagic, "bad frame magic 0x" << std::hex << magic << std::dec
                                                             << " (not an FLRP stream)");
  auto protocol = util::read_pod<std::uint16_t>(buffer_, offset);
  FLINT_CHECK_MSG(protocol == kProtocolVersion,
                  "unsupported rpc protocol version " << protocol << " (this build speaks "
                                                      << kProtocolVersion << ")");
  auto raw_type = util::read_pod<std::uint16_t>(buffer_, offset);
  FLINT_CHECK_MSG(known_type(raw_type), "unknown rpc message type " << raw_type);
  auto payload_len = util::read_pod<std::uint32_t>(buffer_, offset);
  FLINT_CHECK_MSG(payload_len <= kMaxFramePayload,
                  "frame payload length " << payload_len << " exceeds the "
                                          << kMaxFramePayload << "-byte ceiling");

  std::size_t total = kFrameHeaderBytes + static_cast<std::size_t>(payload_len) +
                      kFrameTrailerBytes;
  if (available < total) return std::nullopt;

  std::size_t crc_offset = consumed_ + kFrameHeaderBytes + payload_len;
  std::uint32_t stored_crc = util::read_pod<std::uint32_t>(buffer_, crc_offset);
  std::uint32_t computed = util::crc32(buffer_.data() + consumed_ + sizeof(std::uint32_t),
                                       kFrameHeaderBytes - sizeof(std::uint32_t) + payload_len);
  FLINT_CHECK_MSG(stored_crc == computed, "frame CRC mismatch (stored 0x"
                                              << std::hex << stored_crc << ", computed 0x"
                                              << computed << std::dec
                                              << "): corrupt or torn frame");

  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  frame.payload.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(offset),
                       buffer_.begin() + static_cast<std::ptrdiff_t>(offset + payload_len));
  consumed_ += total;
  compact();
  return frame;
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow its receive buffer without bound.
  if (consumed_ < 4096 || consumed_ * 2 < buffer_.size()) return;
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
  consumed_ = 0;
}

}  // namespace flint::rpc
