// Length-prefixed, CRC-guarded binary framing for the leader/executor wire
// (DESIGN.md §14). Every message the rpc subsystem moves — over a Unix
// socket, TCP, or the in-process loopback — travels inside one frame:
//
//   u32 magic "FLRP" | u16 protocol | u16 type | u32 payload_len
//   | payload bytes | u32 crc32(protocol..payload)
//
// The CRC covers everything after the magic, so a torn, truncated, or
// bit-flipped frame is rejected before any payload field is trusted —
// corruption fails loudly (CheckError), never deserializes into garbage.
// The length prefix is validated against kMaxFramePayload *before* any
// allocation, so a corrupt length cannot drive an OOM or a huge resize.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace flint::rpc {

inline constexpr std::uint32_t kFrameMagic = 0x464C5250u;  // "FLRP" big-endian spelled
inline constexpr std::uint16_t kProtocolVersion = 1;

/// Hard ceiling on one frame's payload. Large enough for a model-blob
/// registration ack or a dense lease (params + client examples) with room to
/// spare; small enough that a corrupt length prefix fails fast.
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/// magic + protocol + type + payload_len.
inline constexpr std::size_t kFrameHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint16_t) + sizeof(std::uint16_t) + sizeof(std::uint32_t);
/// Trailing crc32.
inline constexpr std::size_t kFrameTrailerBytes = sizeof(std::uint32_t);

/// Wire message kinds (DESIGN.md §14 lists each schema).
enum class MessageType : std::uint16_t {
  kRegisterExecutor = 1,  ///< executor -> leader: join the pool
  kRegisterAck = 2,       ///< leader -> executor: id + run context (model blob)
  kHeartbeat = 3,         ///< executor -> leader: liveness + load; leader -> executor: beat now
  kTaskLease = 4,         ///< leader -> executor: one client-training task
  kTaskResult = 5,        ///< executor -> leader: the computed update
  kShutdown = 6,          ///< leader -> executor: drain and exit
};

const char* message_type_name(MessageType type);

/// One decoded message: its type plus the raw (schema-versioned) payload.
struct Frame {
  MessageType type = MessageType::kHeartbeat;
  std::vector<char> payload;
};

/// Encode a frame into wire bytes (header + payload + CRC).
std::vector<char> encode_frame(const Frame& frame);

/// Strict whole-buffer decode: `bytes` must hold exactly one valid frame.
/// Throws CheckError on bad magic, unsupported protocol version, oversized
/// or truncated length, trailing garbage, unknown type, or CRC mismatch.
Frame decode_frame(const std::vector<char>& bytes);

/// Incremental decoder for stream transports: feed() arbitrary byte chunks,
/// next() yields complete frames as they materialize. Validation is the same
/// as decode_frame (the magic and length prefix are checked as soon as the
/// header is complete, the CRC once the whole frame is buffered); malformed
/// input throws CheckError and the stream must be torn down — framing offers
/// no resynchronization by design, a corrupt peer is a dead peer.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size);

  /// The next complete frame, or nullopt when more bytes are needed.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  void compact();

  std::vector<char> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace flint::rpc
