#include "flint/rpc/messages.h"

#include <cmath>
#include <utility>

#include "flint/util/bytes.h"
#include "flint/util/check.h"

namespace flint::rpc {

namespace {

// Ceilings checked before any sized allocation during deserialize, so a
// corrupt count that slipped past the frame CRC still cannot drive an OOM.
// Strings carry a u32 length, vectors and byte blobs a u64 count.
constexpr util::Count<std::uint32_t> kStringBytes{1u << 16};
constexpr util::Count<std::uint64_t> kVectorElems{1u << 26};  // 64M floats = 256 MB
constexpr util::Count<std::uint64_t> kBlobBytes{};
constexpr util::Count<std::uint64_t> kExamples{1u << 22};  // 4M examples per lease
constexpr util::EnumCode<std::uint32_t, std::uint32_t> kLossKind{TaskLeaseMsg::kMaxLossKind};
constexpr util::EnumCode<std::uint32_t, std::uint32_t> kCompressionKind{
    static_cast<std::uint32_t>(compress::CompressionKind::kTopK)};
// Two empty vector counts, label, label2, group.
constexpr std::size_t kExampleMinBytes = 8 + 8 + 4 + 4 + 4;

template <typename IO, util::RecordOf<RegisterExecutorMsg> M>
void walk(IO& io, M& m) {
  io.version(M::kSchemaVersion, "RegisterExecutor schema");
  io.string(m.name, kStringBytes);
  io.field(m.slots);
}

template <typename IO, util::RecordOf<RegisterAckMsg> M>
void walk(IO& io, M& m) {
  io.version(M::kSchemaVersion, "RegisterAck schema");
  io.field(m.executor_id);
  io.field(m.heartbeat_interval_s);
  io.field(m.heartbeat_timeout_s);
  io.field(m.dense_dim);
  io.field(m.leader_wall_us);
  io.vector(m.model_blob, kBlobBytes);
}

template <typename IO, util::RecordOf<HeartbeatMsg> M>
void walk(IO& io, M& m) {
  io.version(M::kSchemaVersion, "Heartbeat schema");
  io.field(m.executor_id);
  io.field(m.seq);
  io.field(m.busy_leases);
  io.vector(m.telemetry, kBlobBytes);
}

template <typename IO, util::RecordOf<TaskLeaseMsg> M>
void walk(IO& io, M& m) {
  io.version(M::kSchemaVersion, "TaskLease schema");
  io.field(m.lease_id);
  io.field(m.task_id);
  io.field(m.client_id);
  io.field(m.round);
  io.field(m.seed);
  io.field(m.dp_participants);
  io.field(m.lr);
  io.field(m.epochs);
  io.field(m.batch_size);
  io.enumerated(m.loss_kind, kLossKind);
  io.field(m.clip_norm);
  io.field(m.momentum);
  io.field(m.prox_mu);
  io.field(m.has_dp);
  io.field(m.dp_clip_norm);
  io.field(m.dp_noise_multiplier);
  io.field(m.dp_delta);
  io.enumerated(m.compression_kind, kCompressionKind);
  io.field(m.top_k_fraction);
  io.field(m.trace_id);
  io.field(m.parent_span_id);
  io.vector(m.params, kVectorElems);
  io.records(m.examples, kExamples, kExampleMinBytes, [](auto& io, auto& e) {
    io.vector(e.dense, kVectorElems);
    io.vector(e.tokens, kVectorElems);
    io.field(e.label);
    io.field(e.label2);
    io.field(e.group);
  });
}

template <typename IO, util::RecordOf<TaskResultMsg> M>
void walk(IO& io, M& m) {
  io.version(M::kSchemaVersion, "TaskResult schema");
  io.field(m.lease_id);
  io.field(m.task_id);
  io.field(m.executor_id);
  io.field(m.ok);
  io.string(m.error, kStringBytes);
  io.field(m.trace_id);
  io.field(m.span_id);
  io.field(m.compression_kind);
  switch (static_cast<compress::CompressionKind>(m.compression_kind)) {
    case compress::CompressionKind::kNone:
      io.vector(m.delta, kVectorElems);
      break;
    case compress::CompressionKind::kInt8:
      io.field(m.quantized.scale);
      io.vector(m.quantized.values, kVectorElems);
      break;
    case compress::CompressionKind::kTopK:
      io.field(m.sparse.dim);
      io.vector(m.sparse.indices, kVectorElems);
      io.vector(m.sparse.values, kVectorElems);
      FLINT_CHECK_MSG(m.sparse.indices.size() == m.sparse.values.size(),
                      "TaskResult sparse payload: " << m.sparse.indices.size()
                                                    << " indices vs "
                                                    << m.sparse.values.size() << " values");
      break;
    default:
      FLINT_CHECK_MSG(false, "TaskResult has unknown compression kind " << m.compression_kind);
  }
  io.field(m.weight);
  io.field(m.mean_loss);
  io.field(m.examples);
}

template <typename IO, util::RecordOf<ShutdownMsg> M>
void walk(IO& io, M& m) {
  io.version(M::kSchemaVersion, "Shutdown schema");
  io.string(m.reason, kStringBytes);
}

template <typename M>
std::vector<char> encode(const M& msg) {
  util::ByteWriter out;
  walk(out, msg);
  return out.take();
}

// Every field is walked, and the reader resizes vectors and record
// sequences in place, so decoding into a used message leaves nothing of it.
template <typename M>
void decode_into(const std::vector<char>& bytes, const char* what, M& msg) {
  util::ByteReader in(bytes);
  walk(in, msg);
  in.finish(what);
}

template <typename M>
M decode(const std::vector<char>& bytes, const char* what) {
  M msg;
  decode_into(bytes, what, msg);
  return msg;
}

}  // namespace

std::vector<char> RegisterExecutorMsg::serialize() const { return encode(*this); }

RegisterExecutorMsg RegisterExecutorMsg::deserialize(const std::vector<char>& bytes) {
  return decode<RegisterExecutorMsg>(bytes, "RegisterExecutor payload");
}

std::vector<char> RegisterAckMsg::serialize() const { return encode(*this); }

RegisterAckMsg RegisterAckMsg::deserialize(const std::vector<char>& bytes) {
  return decode<RegisterAckMsg>(bytes, "RegisterAck payload");
}

std::vector<char> HeartbeatMsg::serialize() const { return encode(*this); }

HeartbeatMsg HeartbeatMsg::deserialize(const std::vector<char>& bytes) {
  return decode<HeartbeatMsg>(bytes, "Heartbeat payload");
}

std::vector<char> TaskLeaseMsg::serialize() const { return encode(*this); }

void TaskLeaseMsg::deserialize(const std::vector<char>& bytes, TaskLeaseMsg& into) {
  decode_into(bytes, "TaskLease payload", into);
}

void TaskResultMsg::encode_delta(std::vector<float> dense,
                                 const compress::CompressionConfig& config) {
  compression_kind = static_cast<std::uint32_t>(config.kind);
  switch (config.kind) {
    case compress::CompressionKind::kNone:
      delta = std::move(dense);
      return;
    case compress::CompressionKind::kInt8:
      quantized = compress::quantize_int8(dense);
      return;
    case compress::CompressionKind::kTopK: {
      FLINT_CHECK(config.top_k_fraction > 0.0 && config.top_k_fraction <= 1.0);
      auto k = static_cast<std::size_t>(
          std::ceil(config.top_k_fraction * static_cast<double>(dense.size())));
      sparse = compress::top_k_sparsify(dense, k);
      return;
    }
  }
  FLINT_CHECK_MSG(false, "unknown compression kind " << compression_kind);
}

std::vector<float> TaskResultMsg::take_delta() {
  switch (static_cast<compress::CompressionKind>(compression_kind)) {
    case compress::CompressionKind::kNone:
      return std::move(delta);
    case compress::CompressionKind::kInt8: {
      std::vector<float> dense = compress::dequantize(quantized);
      quantized = {};
      return dense;
    }
    case compress::CompressionKind::kTopK: {
      std::vector<float> dense = compress::densify(sparse);
      sparse = {};
      return dense;
    }
  }
  FLINT_CHECK_MSG(false, "unknown compression kind " << compression_kind);
  return {};
}

std::size_t TaskResultMsg::payload_bytes() const {
  switch (static_cast<compress::CompressionKind>(compression_kind)) {
    case compress::CompressionKind::kNone:
      return delta.size() * sizeof(float);
    case compress::CompressionKind::kInt8:
      return quantized.payload_bytes();
    case compress::CompressionKind::kTopK:
      return sparse.payload_bytes();
  }
  return delta.size() * sizeof(float);
}

std::vector<char> TaskResultMsg::serialize() const { return encode(*this); }

TaskResultMsg TaskResultMsg::deserialize(const std::vector<char>& bytes) {
  return decode<TaskResultMsg>(bytes, "TaskResult payload");
}

std::vector<char> ShutdownMsg::serialize() const { return encode(*this); }

}  // namespace flint::rpc
