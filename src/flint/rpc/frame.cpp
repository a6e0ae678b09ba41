#include "flint/rpc/frame.h"

#include <utility>

#include "flint/util/bytes.h"
#include "flint/util/check.h"
#include "flint/util/crc32.h"

namespace flint::rpc {

namespace {

/// The fixed-size frame header, in wire order.
struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint16_t protocol = 0;
  std::uint16_t type = 0;
  std::uint32_t payload_len = 0;
};

template <typename IO, util::RecordOf<FrameHeader> H>
void walk(IO& io, H& h) {
  io.field(h.magic);
  io.field(h.protocol);
  io.field(h.type);
  io.field(h.payload_len);
}

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

void encode_frame(const Frame& frame, std::vector<char>& wire) {
  FLINT_CHECK_LE(frame.payload.size(), static_cast<std::size_t>(kMaxFramePayload));
  util::ByteWriter out(std::move(wire));
  out.reserve(kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
  const FrameHeader header{kFrameMagic, kProtocolVersion,
                           static_cast<std::uint16_t>(frame.type),
                           static_cast<std::uint32_t>(frame.payload.size())};
  walk(out, header);
  out.raw(frame.payload.data(), frame.payload.size());
  // CRC over everything after the magic: protocol, type, length, payload.
  out.field(util::crc32(out.data() + sizeof(std::uint32_t), out.size() - sizeof(std::uint32_t)));
  wire = out.take();
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

bool FrameDecoder::next(Frame& out) {
  std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return false;

  // Header first, read in place: validate magic / protocol / type / length
  // before waiting for (or trusting) any payload byte.
  util::ByteReader in(buffer_.data() + consumed_, available);
  FrameHeader header;
  walk(in, header);
  FLINT_CHECK_MSG(header.magic == kFrameMagic, "bad frame magic 0x"
                                                   << std::hex << header.magic << std::dec
                                                   << " (not an FLRP stream)");
  FLINT_CHECK_MSG(header.protocol == kProtocolVersion,
                  "unsupported rpc protocol version " << header.protocol
                                                      << " (this build speaks "
                                                      << kProtocolVersion << ")");
  FLINT_CHECK_MSG(known_type(header.type), "unknown rpc message type " << header.type);
  FLINT_CHECK_MSG(header.payload_len <= kMaxFramePayload,
                  "frame payload length " << header.payload_len << " exceeds the "
                                          << kMaxFramePayload << "-byte ceiling");

  if (in.remaining() < static_cast<std::size_t>(header.payload_len) + kFrameTrailerBytes)
    return false;
  const char* payload = in.raw(header.payload_len);
  const auto stored_crc = in.read<std::uint32_t>();
  std::uint32_t computed = util::crc32(buffer_.data() + consumed_ + sizeof(std::uint32_t),
                                       kFrameHeaderBytes - sizeof(std::uint32_t) +
                                           header.payload_len);
  FLINT_CHECK_MSG(stored_crc == computed, "frame CRC mismatch (stored 0x"
                                              << std::hex << stored_crc << ", computed 0x"
                                              << computed << std::dec
                                              << "): corrupt or torn frame");

  out.type = static_cast<MessageType>(header.type);
  out.payload.assign(payload, payload + header.payload_len);
  consumed_ += kFrameHeaderBytes + header.payload_len + kFrameTrailerBytes;
  compact();
  return true;
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow its receive buffer without bound.
  if (consumed_ < 4096 || consumed_ * 2 < buffer_.size()) return;
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
  consumed_ = 0;
}

}  // namespace flint::rpc
