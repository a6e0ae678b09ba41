#include "flint/rpc/messages.h"

#include <cmath>
#include <utility>

#include "flint/util/bytes.h"
#include "flint/util/check.h"

namespace flint::rpc {

namespace {

// Sanity ceilings applied before any sized allocation during deserialize, so
// a corrupt count that slipped past the frame CRC still cannot drive an OOM.
constexpr std::uint64_t kMaxStringBytes = 1u << 16;
constexpr std::uint64_t kMaxVectorElems = 1u << 26;   // 64M floats = 256 MB
constexpr std::uint64_t kMaxExamples = 1u << 22;      // 4M examples per lease

void append_string(std::vector<char>& out, const std::string& s) {
  FLINT_CHECK_LE(s.size(), static_cast<std::size_t>(kMaxStringBytes));
  util::append_pod(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string read_string(const std::vector<char>& in, std::size_t& offset) {
  auto size = util::read_pod<std::uint32_t>(in, offset);
  FLINT_CHECK_LE(static_cast<std::uint64_t>(size), kMaxStringBytes);
  FLINT_CHECK_LE(offset, in.size());
  FLINT_CHECK_LE(static_cast<std::size_t>(size), in.size() - offset);
  std::string s(in.data() + offset, size);
  offset += size;
  return s;
}

template <typename T>
void append_vector(std::vector<char>& out, const std::vector<T>& v) {
  util::append_pod(out, static_cast<std::uint64_t>(v.size()));
  util::append_pod_array(out, v.data(), v.size());
}

template <typename T>
std::vector<T> read_vector(const std::vector<char>& in, std::size_t& offset,
                           std::uint64_t max_elems = kMaxVectorElems) {
  auto count = util::read_pod<std::uint64_t>(in, offset);
  FLINT_CHECK_LE(count, max_elems);
  // The payload must hold `count` elements before any of them is allocated.
  FLINT_CHECK_LE(count, static_cast<std::uint64_t>((in.size() - offset) / sizeof(T)));
  std::vector<T> v(static_cast<std::size_t>(count));
  util::read_pod_array(in, offset, v.data(), v.size());
  return v;
}

void append_bytes(std::vector<char>& out, const std::vector<char>& blob) {
  util::append_pod(out, static_cast<std::uint64_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

std::vector<char> read_bytes(const std::vector<char>& in, std::size_t& offset) {
  auto size = util::read_pod<std::uint64_t>(in, offset);
  FLINT_CHECK_LE(offset, in.size());
  FLINT_CHECK_LE(size, static_cast<std::uint64_t>(in.size() - offset));
  std::vector<char> blob(in.begin() + static_cast<std::ptrdiff_t>(offset),
                         in.begin() + static_cast<std::ptrdiff_t>(offset + size));
  offset += static_cast<std::size_t>(size);
  return blob;
}

void append_example(std::vector<char>& out, const ml::Example& e) {
  append_vector(out, e.dense);
  append_vector(out, e.tokens);
  util::append_pod(out, e.label);
  util::append_pod(out, e.label2);
  util::append_pod(out, e.group);
}

ml::Example read_example(const std::vector<char>& in, std::size_t& offset) {
  ml::Example e;
  e.dense = read_vector<float>(in, offset);
  e.tokens = read_vector<std::int32_t>(in, offset);
  e.label = util::read_pod<float>(in, offset);
  e.label2 = util::read_pod<float>(in, offset);
  e.group = util::read_pod<std::int32_t>(in, offset);
  return e;
}

void check_schema(const char* what, std::uint16_t got, std::uint16_t expect) {
  FLINT_CHECK_MSG(got == expect, what << " schema version " << got
                                      << " does not match this build's " << expect);
}

void check_consumed(const char* what, std::size_t offset, std::size_t size) {
  FLINT_CHECK_MSG(offset == size, what << " payload has " << size - offset
                                       << " trailing byte(s)");
}

}  // namespace

std::vector<char> RegisterExecutorMsg::serialize() const {
  std::vector<char> out;
  util::append_pod(out, kSchemaVersion);
  append_string(out, name);
  util::append_pod(out, slots);
  return out;
}

RegisterExecutorMsg RegisterExecutorMsg::deserialize(const std::vector<char>& bytes) {
  std::size_t offset = 0;
  check_schema("RegisterExecutor", util::read_pod<std::uint16_t>(bytes, offset),
               kSchemaVersion);
  RegisterExecutorMsg msg;
  msg.name = read_string(bytes, offset);
  msg.slots = util::read_pod<std::uint32_t>(bytes, offset);
  check_consumed("RegisterExecutor", offset, bytes.size());
  return msg;
}

std::vector<char> RegisterAckMsg::serialize() const {
  std::vector<char> out;
  util::append_pod(out, kSchemaVersion);
  util::append_pod(out, executor_id);
  util::append_pod(out, heartbeat_interval_s);
  util::append_pod(out, heartbeat_timeout_s);
  util::append_pod(out, dense_dim);
  util::append_pod(out, leader_wall_us);
  append_bytes(out, model_blob);
  return out;
}

RegisterAckMsg RegisterAckMsg::deserialize(const std::vector<char>& bytes) {
  std::size_t offset = 0;
  check_schema("RegisterAck", util::read_pod<std::uint16_t>(bytes, offset), kSchemaVersion);
  RegisterAckMsg msg;
  msg.executor_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.heartbeat_interval_s = util::read_pod<double>(bytes, offset);
  msg.heartbeat_timeout_s = util::read_pod<double>(bytes, offset);
  msg.dense_dim = util::read_pod<std::uint64_t>(bytes, offset);
  msg.leader_wall_us = util::read_pod<double>(bytes, offset);
  msg.model_blob = read_bytes(bytes, offset);
  check_consumed("RegisterAck", offset, bytes.size());
  return msg;
}

std::vector<char> HeartbeatMsg::serialize() const {
  std::vector<char> out;
  util::append_pod(out, kSchemaVersion);
  util::append_pod(out, executor_id);
  util::append_pod(out, seq);
  util::append_pod(out, busy_leases);
  append_bytes(out, telemetry);
  return out;
}

HeartbeatMsg HeartbeatMsg::deserialize(const std::vector<char>& bytes) {
  std::size_t offset = 0;
  check_schema("Heartbeat", util::read_pod<std::uint16_t>(bytes, offset), kSchemaVersion);
  HeartbeatMsg msg;
  msg.executor_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.seq = util::read_pod<std::uint64_t>(bytes, offset);
  msg.busy_leases = util::read_pod<std::uint32_t>(bytes, offset);
  msg.telemetry = read_bytes(bytes, offset);
  check_consumed("Heartbeat", offset, bytes.size());
  return msg;
}

std::vector<char> TaskLeaseMsg::serialize() const {
  std::vector<char> out;
  util::append_pod(out, kSchemaVersion);
  util::append_pod(out, lease_id);
  util::append_pod(out, task_id);
  util::append_pod(out, client_id);
  util::append_pod(out, round);
  util::append_pod(out, seed);
  util::append_pod(out, dp_participants);
  util::append_pod(out, lr);
  util::append_pod(out, epochs);
  util::append_pod(out, batch_size);
  util::append_pod(out, loss_kind);
  util::append_pod(out, clip_norm);
  util::append_pod(out, momentum);
  util::append_pod(out, prox_mu);
  util::append_pod(out, static_cast<std::uint8_t>(has_dp ? 1 : 0));
  util::append_pod(out, dp_clip_norm);
  util::append_pod(out, dp_noise_multiplier);
  util::append_pod(out, dp_delta);
  util::append_pod(out, compression_kind);
  util::append_pod(out, top_k_fraction);
  util::append_pod(out, trace_id);
  util::append_pod(out, parent_span_id);
  append_vector(out, params);
  FLINT_CHECK_LE(examples.size(), static_cast<std::size_t>(kMaxExamples));
  util::append_pod(out, static_cast<std::uint64_t>(examples.size()));
  for (const ml::Example& e : examples) append_example(out, e);
  return out;
}

TaskLeaseMsg TaskLeaseMsg::deserialize(const std::vector<char>& bytes) {
  std::size_t offset = 0;
  check_schema("TaskLease", util::read_pod<std::uint16_t>(bytes, offset), kSchemaVersion);
  TaskLeaseMsg msg;
  msg.lease_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.task_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.client_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.round = util::read_pod<std::uint64_t>(bytes, offset);
  msg.seed = util::read_pod<std::uint64_t>(bytes, offset);
  msg.dp_participants = util::read_pod<std::uint64_t>(bytes, offset);
  msg.lr = util::read_pod<double>(bytes, offset);
  msg.epochs = util::read_pod<std::int32_t>(bytes, offset);
  msg.batch_size = util::read_pod<std::uint64_t>(bytes, offset);
  msg.loss_kind = util::read_pod<std::uint32_t>(bytes, offset);
  msg.clip_norm = util::read_pod<double>(bytes, offset);
  msg.momentum = util::read_pod<double>(bytes, offset);
  msg.prox_mu = util::read_pod<double>(bytes, offset);
  msg.has_dp = util::read_pod<std::uint8_t>(bytes, offset) != 0;
  msg.dp_clip_norm = util::read_pod<double>(bytes, offset);
  msg.dp_noise_multiplier = util::read_pod<double>(bytes, offset);
  msg.dp_delta = util::read_pod<double>(bytes, offset);
  msg.compression_kind = util::read_pod<std::uint32_t>(bytes, offset);
  msg.top_k_fraction = util::read_pod<double>(bytes, offset);
  msg.trace_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.parent_span_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.params = read_vector<float>(bytes, offset);
  auto example_count = util::read_pod<std::uint64_t>(bytes, offset);
  FLINT_CHECK_LE(example_count, kMaxExamples);
  msg.examples.reserve(static_cast<std::size_t>(example_count));
  for (std::uint64_t i = 0; i < example_count; ++i)
    msg.examples.push_back(read_example(bytes, offset));
  check_consumed("TaskLease", offset, bytes.size());
  return msg;
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

std::vector<char> TaskResultMsg::serialize() const {
  std::vector<char> out;
  util::append_pod(out, kSchemaVersion);
  util::append_pod(out, lease_id);
  util::append_pod(out, task_id);
  util::append_pod(out, executor_id);
  util::append_pod(out, static_cast<std::uint8_t>(ok ? 1 : 0));
  append_string(out, error);
  util::append_pod(out, trace_id);
  util::append_pod(out, span_id);
  util::append_pod(out, compression_kind);
  switch (static_cast<compress::CompressionKind>(compression_kind)) {
    case compress::CompressionKind::kNone:
      append_vector(out, delta);
      break;
    case compress::CompressionKind::kInt8:
      util::append_pod(out, quantized.scale);
      append_vector(out, quantized.values);
      break;
    case compress::CompressionKind::kTopK:
      util::append_pod(out, sparse.dim);
      append_vector(out, sparse.indices);
      append_vector(out, sparse.values);
      break;
  }
  util::append_pod(out, weight);
  util::append_pod(out, mean_loss);
  util::append_pod(out, examples);
  return out;
}

TaskResultMsg TaskResultMsg::deserialize(const std::vector<char>& bytes) {
  std::size_t offset = 0;
  check_schema("TaskResult", util::read_pod<std::uint16_t>(bytes, offset), kSchemaVersion);
  TaskResultMsg msg;
  msg.lease_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.task_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.executor_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.ok = util::read_pod<std::uint8_t>(bytes, offset) != 0;
  msg.error = read_string(bytes, offset);
  msg.trace_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.span_id = util::read_pod<std::uint64_t>(bytes, offset);
  msg.compression_kind = util::read_pod<std::uint32_t>(bytes, offset);
  switch (msg.compression_kind) {
    case static_cast<std::uint32_t>(compress::CompressionKind::kNone):
      msg.delta = read_vector<float>(bytes, offset);
      break;
    case static_cast<std::uint32_t>(compress::CompressionKind::kInt8):
      msg.quantized.scale = util::read_pod<float>(bytes, offset);
      msg.quantized.values = read_vector<std::int8_t>(bytes, offset);
      break;
    case static_cast<std::uint32_t>(compress::CompressionKind::kTopK):
      msg.sparse.dim = util::read_pod<std::uint32_t>(bytes, offset);
      msg.sparse.indices = read_vector<std::uint32_t>(bytes, offset);
      msg.sparse.values = read_vector<float>(bytes, offset);
      FLINT_CHECK_MSG(msg.sparse.indices.size() == msg.sparse.values.size(),
                      "TaskResult sparse payload: " << msg.sparse.indices.size()
                                                    << " indices vs "
                                                    << msg.sparse.values.size() << " values");
      break;
    default:
      FLINT_CHECK_MSG(false,
                      "TaskResult has unknown compression kind " << msg.compression_kind);
  }
  msg.weight = util::read_pod<double>(bytes, offset);
  msg.mean_loss = util::read_pod<double>(bytes, offset);
  msg.examples = util::read_pod<std::uint64_t>(bytes, offset);
  check_consumed("TaskResult", offset, bytes.size());
  return msg;
}

std::vector<char> ShutdownMsg::serialize() const {
  std::vector<char> out;
  util::append_pod(out, kSchemaVersion);
  append_string(out, reason);
  return out;
}

}  // namespace flint::rpc
