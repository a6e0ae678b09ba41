// The byte codec behind every FLINT binary format (rpc messages and frames,
// telemetry snapshots, checkpoints, model blobs), tested two ways:
//
//  - Golden format: a fixed, fully populated instance of each record is
//    serialized and the FNV-1a-64 of its bytes compared with a recorded
//    constant, so any change to a wire or file byte fails here. The rpc
//    bytes are pinned nowhere else (artifact checks compare results only).
//  - Seeded mutation: thousands of mutants per format (bit flips,
//    truncations, splices, count fields overwritten with extreme values) must
//    each decode or throw CheckError. This binary replaces the global
//    operator new, so it stands alone: while a mutant decodes, any single
//    request above 8 x input size + 64 KiB throws std::bad_alloc, which the
//    test reports as a failure. A decoder that sizes an allocation from an
//    unchecked count therefore fails without allocating anything large.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "flint/ml/model.h"
#include "flint/ml/serialize.h"
#include "flint/obs/telemetry_snapshot.h"
#include "flint/rpc/frame.h"
#include "flint/rpc/messages.h"
#include "flint/store/checkpoint.h"
#include "flint/util/check.h"
#include "flint/util/crc32.h"
#include "flint/util/rng.h"

namespace {

/// Largest single allocation allowed while a mutant decodes; 0 = no cap.
std::atomic<std::size_t> g_alloc_cap{0};

void* capped_alloc(std::size_t n) {
  const std::size_t cap = g_alloc_cap.load(std::memory_order_relaxed);
  // flint-lint: allow(throw): a replacement operator new reports failure this way
  if (cap != 0 && n > cap) throw std::bad_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  // flint-lint: allow(throw): a replacement operator new reports failure this way
  throw std::bad_alloc();
}

void* capped_aligned_alloc(std::size_t n, std::align_val_t align) {
  const std::size_t cap = g_alloc_cap.load(std::memory_order_relaxed);
  // flint-lint: allow(throw): a replacement operator new reports failure this way
  if (cap != 0 && n > cap) throw std::bad_alloc();
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  // flint-lint: allow(throw): a replacement operator new reports failure this way
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return capped_alloc(n); }
void* operator new[](std::size_t n) { return capped_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return capped_aligned_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return capped_aligned_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace flint {
namespace {

std::uint64_t fnv1a64(const std::vector<char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// ------------------------------------------------------------ fixtures
// Every field holds a non-default value, and every float is exact in
// binary, so the bytes depend on nothing but the format.

std::vector<float> ramp(std::size_t n, float start, float step) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = start + step * static_cast<float>(i);
  return v;
}

ml::FeedForwardConfig feedforward_config() {
  ml::FeedForwardConfig cfg;
  cfg.dense_dim = 3;
  cfg.front_end = ml::FrontEnd::kEmbedding;
  cfg.vocab = 7;
  cfg.embed_dim = 2;
  cfg.hidden = {4, 3};
  cfg.heads = 2;
  return cfg;
}

ml::ConvTextConfig convtext_config() {
  ml::ConvTextConfig cfg;
  cfg.vocab = 9;
  cfg.embed_dim = 2;
  cfg.seq_len = 5;
  cfg.conv_channels = 3;
  cfg.kernel = 2;
  cfg.hidden = {4};
  return cfg;
}

template <typename M>
std::vector<char> model_blob(M model) {
  model.set_flat_parameters(ramp(model.parameter_count(), -1.0f, 0.125f));
  return ml::serialize_model(model);
}

std::vector<char> feedforward_blob() {
  return model_blob(ml::FeedForwardModel(feedforward_config()));
}

std::vector<char> convtext_blob() { return model_blob(ml::ConvTextModel(convtext_config())); }

obs::TelemetrySnapshot telemetry_snapshot() {
  obs::TelemetrySnapshot snap;
  snap.seq = 17;
  snap.counters = {{"rpc.leases", 12}, {"ml.examples", 4096}};
  snap.gauges = {{"fl.round", 3.5}, {"rpc.inflight", -2.0}};
  snap.histograms = {{"rpc.lease_us", 0.0, 100.0, 6, 250.5, {1, 0, 2, 3}},
                     {"store.write_us", 1.0, 2.0, 1, 1.5, {1}}};
  return snap;
}

rpc::RegisterExecutorMsg register_msg() {
  rpc::RegisterExecutorMsg msg;
  msg.name = "pid:4242";
  msg.slots = 3;
  return msg;
}

rpc::RegisterAckMsg register_ack_msg() {
  rpc::RegisterAckMsg msg;
  msg.executor_id = 9;
  msg.heartbeat_interval_s = 0.25;
  msg.heartbeat_timeout_s = 7.5;
  msg.dense_dim = 3;
  msg.leader_wall_us = 123456.5;
  msg.model_blob = feedforward_blob();
  return msg;
}

rpc::HeartbeatMsg heartbeat_msg() {
  rpc::HeartbeatMsg msg;
  msg.executor_id = 9;
  msg.seq = 41;
  msg.busy_leases = 2;
  msg.telemetry = telemetry_snapshot().serialize();
  return msg;
}

/// A lease decoded into a fresh message (the executor decodes into the one
/// it keeps).
rpc::TaskLeaseMsg decode_lease(const std::vector<char>& bytes) {
  rpc::TaskLeaseMsg lease;
  rpc::TaskLeaseMsg::deserialize(bytes, lease);
  return lease;
}

rpc::TaskLeaseMsg lease_msg() {
  rpc::TaskLeaseMsg msg;
  msg.lease_id = 101;
  msg.task_id = 202;
  msg.client_id = 303;
  msg.round = 4;
  msg.seed = 0x5eed5eed5eedull;
  msg.dp_participants = 12;
  msg.lr = 0.125;
  msg.epochs = 2;
  msg.batch_size = 8;
  msg.loss_kind = 1;
  msg.clip_norm = 1.5;
  msg.momentum = 0.5;
  msg.prox_mu = 0.25;
  msg.has_dp = true;
  msg.dp_clip_norm = 2.0;
  msg.dp_noise_multiplier = 0.75;
  msg.dp_delta = 0.0078125;
  msg.compression_kind = 2;
  msg.top_k_fraction = 0.375;
  msg.trace_id = 0xabcdef;
  msg.parent_span_id = 77;
  msg.params = ramp(6, 0.5f, -0.25f);
  for (int i = 0; i < 3; ++i) {
    ml::Example e;
    e.dense = ramp(static_cast<std::size_t>(i + 1), 1.0f, 0.5f);
    e.tokens.assign(static_cast<std::size_t>(2 - i), 5 + i);
    e.label = static_cast<float>(i % 2);
    e.label2 = 0.5f * static_cast<float>(i);
    e.group = 10 + i;
    msg.examples.push_back(e);
  }
  return msg;
}

rpc::TaskResultMsg result_msg(compress::CompressionKind kind) {
  rpc::TaskResultMsg msg;
  msg.lease_id = 101;
  msg.task_id = 202;
  msg.executor_id = 9;
  msg.ok = true;
  msg.error = "none";
  msg.trace_id = 0xabcdef;
  msg.span_id = 88;
  msg.compression_kind = static_cast<std::uint32_t>(kind);
  switch (kind) {
    case compress::CompressionKind::kNone:
      msg.delta = ramp(5, -0.5f, 0.25f);
      break;
    case compress::CompressionKind::kInt8:
      msg.quantized.scale = 0.0625f;
      msg.quantized.values = {-127, -3, 0, 4, 127};
      break;
    case compress::CompressionKind::kTopK:
      msg.sparse.dim = 9;
      msg.sparse.indices = {1, 4, 8};
      msg.sparse.values = {0.5f, -1.25f, 2.0f};
      break;
  }
  msg.weight = 1.5;
  msg.mean_loss = 0.6875;
  msg.examples = 24;
  return msg;
}

rpc::ShutdownMsg shutdown_msg() {
  rpc::ShutdownMsg msg;
  msg.reason = "drain";
  return msg;
}

store::SimCheckpoint checkpoint(bool with_fedbuff) {
  store::SimCheckpoint c;
  c.virtual_time_s = 3600.5;
  c.round = 7;
  c.tasks_completed = 55;
  c.model_parameters = ramp(4, 0.25f, 0.5f);
  c.run_seed = 2024;
  c.algo = with_fedbuff ? store::kCheckpointAlgoFedBuff : store::kCheckpointAlgoFedAvg;
  c.resume_count = 1;
  c.checkpoints_written = 3;
  c.server_velocity = ramp(4, -0.125f, 0.0625f);
  c.server_rng_state = "1 2 3 4";
  c.next_task_id = 60;
  c.arrival_cursor = 44;
  c.requeued = {{10.5, 5, 2, 20.25}, {11.0, 6, 0, 30.0}};
  c.last_participation = {{5, 9.5}, {6, 10.0}};
  c.metrics.tasks_started = 60;
  c.metrics.tasks_succeeded = 50;
  c.metrics.tasks_interrupted = 4;
  c.metrics.tasks_stale = 3;
  c.metrics.tasks_failed = 1;
  c.metrics.updates_aggregated = 48;
  c.metrics.client_compute_s = 812.25;
  c.metrics.rounds = {{1, 0.0, 100.5, 8, 0.5}, {2, 100.5, 250.0, 9, 1.25}};
  c.metrics.checkpoints = {{2, 250.0}};
  c.eval_curve = {{100.5, 1, 0.625, 0.5}, {250.0, 2, 0.75, 0.375}};
  c.client_accounts = {{5, 3, 1, 0, 0, 12.5, 1.5, 4096, 2048},
                       {6, 2, 0, 1, 1, 8.0, 0.5, 1024, 512}};
  c.has_fedbuff = with_fedbuff;
  if (with_fedbuff) {
    store::CheckpointFedBuff& fb = c.fedbuff;
    fb.accumulator_sum = {0.5, -1.5, 2.25, 0.0};
    fb.accumulator_weight_sum = 3.0;
    fb.accumulator_count = 2;
    fb.staleness_sum = 1.5;
    fb.round_start = 250.0;
    fb.last_aggregation_time = 249.5;
    fb.pump_scheduled = true;
    fb.pump_time = 251.25;
    fb.pump_stamp = 900;
    fb.next_stamp = 905;
    store::CheckpointInFlightTask t;
    t.task_id = 58;
    t.client_id = 7;
    t.device_index = 3;
    t.model_version = 2;
    t.dispatch_time = 248.0;
    t.compute_s = 4.5;
    t.comm_s = 0.75;
    t.examples = 30;
    t.update_bytes = 16;
    t.spent_compute_s = 2.25;
    t.window_end = 300.0;
    t.finish_time = 253.25;
    t.interrupted = false;
    t.stamp = 901;
    t.update_weight = 30.0;
    t.update_delta = ramp(4, 0.0625f, 0.125f);
    fb.in_flight.push_back(t);
    t.task_id = 59;
    t.interrupted = true;
    t.stamp = 903;
    t.update_delta.clear();
    fb.in_flight.push_back(t);
  }
  return c;
}

std::vector<char> lease_frame() {
  std::vector<char> wire;
  rpc::encode_frame(rpc::Frame{rpc::MessageType::kTaskLease, lease_msg().serialize()}, wire);
  return wire;
}

// ------------------------------------------------------- golden format
// Changing any of these constants changes a wire or file format: every
// peer and every stored checkpoint or model blob must then change too.

TEST(GoldenFormat, RpcMessages) {
  EXPECT_EQ(fnv1a64(register_msg().serialize()), 0x697b3ffaab3ba23aull);
  EXPECT_EQ(fnv1a64(register_ack_msg().serialize()), 0x54b8e77b1750672full);
  EXPECT_EQ(fnv1a64(heartbeat_msg().serialize()), 0x5b9a52c13ac681b6ull);
  EXPECT_EQ(fnv1a64(lease_msg().serialize()), 0xaa6b55fc761610eeull);
  EXPECT_EQ(fnv1a64(result_msg(compress::CompressionKind::kNone).serialize()), 0xff79d446b5b09479ull);
  EXPECT_EQ(fnv1a64(result_msg(compress::CompressionKind::kInt8).serialize()), 0x97e548d3cc40d922ull);
  EXPECT_EQ(fnv1a64(result_msg(compress::CompressionKind::kTopK).serialize()), 0xb806c12da5afc96aull);
  EXPECT_EQ(fnv1a64(shutdown_msg().serialize()), 0xf07666b89f947cbdull);
}

TEST(GoldenFormat, TelemetrySnapshot) {
  EXPECT_EQ(fnv1a64(telemetry_snapshot().serialize()), 0xc7d201abe67d5608ull);
}

TEST(GoldenFormat, Checkpoints) {
  EXPECT_EQ(fnv1a64(store::serialize_checkpoint(checkpoint(false))), 0xa0100f1c5b66575dull);
  EXPECT_EQ(fnv1a64(store::serialize_checkpoint(checkpoint(true))), 0xce61c22a287c308cull);
}

TEST(GoldenFormat, ModelBlobs) {
  EXPECT_EQ(fnv1a64(feedforward_blob()), 0x6c9b2d2f8bc5fcc3ull);
  EXPECT_EQ(fnv1a64(convtext_blob()), 0x9a3ec48f131e2b49ull);
}

TEST(GoldenFormat, Frame) { EXPECT_EQ(fnv1a64(lease_frame()), 0x568fcc377338e95eull); }

// Round trips: each decoder reads back exactly what its encoder wrote.
TEST(GoldenFormat, DecodeReencodesIdentically) {
  auto same = [](const std::vector<char>& bytes, const std::vector<char>& again) {
    EXPECT_EQ(bytes, again);
  };
  auto reg = register_msg().serialize();
  same(reg, rpc::RegisterExecutorMsg::deserialize(reg).serialize());
  auto ack = register_ack_msg().serialize();
  same(ack, rpc::RegisterAckMsg::deserialize(ack).serialize());
  auto beat = heartbeat_msg().serialize();
  same(beat, rpc::HeartbeatMsg::deserialize(beat).serialize());
  auto lease = lease_msg().serialize();
  same(lease, decode_lease(lease).serialize());
  for (auto kind : {compress::CompressionKind::kNone, compress::CompressionKind::kInt8,
                    compress::CompressionKind::kTopK}) {
    auto result = result_msg(kind).serialize();
    same(result, rpc::TaskResultMsg::deserialize(result).serialize());
  }
  auto snap = telemetry_snapshot().serialize();
  same(snap, obs::TelemetrySnapshot::deserialize(snap).serialize());
  for (bool fedbuff : {false, true}) {
    auto ckpt = store::serialize_checkpoint(checkpoint(fedbuff));
    same(ckpt, store::serialize_checkpoint(store::deserialize_checkpoint(ckpt)));
  }
  for (const auto& blob : {feedforward_blob(), convtext_blob()})
    same(blob, ml::serialize_model(*ml::deserialize_model(blob)));
  auto wire = lease_frame();
  rpc::FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  rpc::Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  // Re-encode into a buffer that already holds other bytes: encode_frame
  // replaces them.
  std::vector<char> again(3 * wire.size(), 'x');
  rpc::encode_frame(frame, again);
  same(wire, again);
}

// ------------------------------------------------------ seeded mutation

/// Caps single allocations at 8 x input size + 64 KiB while in scope.
class AllocCap {
 public:
  explicit AllocCap(std::size_t input_size) {
    g_alloc_cap.store(8 * input_size + 64 * 1024, std::memory_order_relaxed);
  }
  ~AllocCap() { g_alloc_cap.store(0, std::memory_order_relaxed); }
  AllocCap(const AllocCap&) = delete;
  AllocCap& operator=(const AllocCap&) = delete;
};

enum class Outcome { kDecoded, kCheckError, kBadAlloc, kOtherError };

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kDecoded: return "decoded";
    case Outcome::kCheckError: return "CheckError";
    case Outcome::kBadAlloc: return "an allocation above the cap";
    case Outcome::kOtherError: return "a non-CheckError exception";
  }
  return "?";
}

using Decoder = std::function<void(const std::vector<char>&)>;

Outcome decode_capped(const Decoder& decode, const std::vector<char>& bytes) {
  try {
    AllocCap cap(bytes.size());
    decode(bytes);
    return Outcome::kDecoded;
  } catch (const util::CheckError&) {
    return Outcome::kCheckError;
  } catch (const std::bad_alloc&) {
    return Outcome::kBadAlloc;
  } catch (...) {
    return Outcome::kOtherError;
  }
}

template <typename T>
void put(std::vector<char>& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

constexpr std::uint32_t kExtreme32[] = {0xFFFFFFFFu, 0x80000000u, 0x7FFFFFFFu, 0x10000000u,
                                        0x00400000u, 4096u,       4097u,       0xFFFFu};
constexpr std::uint64_t kExtreme64[] = {~0ull,           1ull << 63,  (1ull << 62) + 1,
                                        1ull << 32,      1ull << 28,  1ull << 22,
                                        0x3FFFFFFFFFFFFFFFull, 0xFFFFFFFFull};

/// Where to overwrite a `Width`-byte count: half the time an offset whose
/// current value is a plausible count (nonzero and no larger than the input),
/// which finds the real count and length fields, else any offset.
template <typename Width>
std::size_t count_offset(const std::vector<char>& m, std::size_t from, util::Rng& rng) {
  std::vector<std::size_t> counts;
  for (std::size_t at = from; at + sizeof(Width) <= m.size(); ++at) {
    Width v = 0;
    std::memcpy(&v, m.data() + at, sizeof(Width));
    if (v != 0 && v <= m.size()) counts.push_back(at);
  }
  const auto last = static_cast<std::int64_t>(m.size() - sizeof(Width));
  if (counts.empty() || rng.bernoulli(0.5))
    return static_cast<std::size_t>(rng.uniform_int(static_cast<std::int64_t>(from), last));
  return counts[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(counts.size()) - 1))];
}

/// One mutant of `seed`. `donor` supplies spliced bytes. `from` keeps a
/// format's fixed header intact when the codec reseals it afterwards.
std::vector<char> mutate(const std::vector<char>& seed, const std::vector<char>& donor,
                         std::size_t from, util::Rng& rng) {
  std::vector<char> m = seed;
  auto pick = [&](std::size_t lo, std::size_t hi) {  // inclusive
    return static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
  };
  if (m.size() <= from + 8) return m;
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // bit flips
      const std::size_t flips = pick(1, 4);
      for (std::size_t i = 0; i < flips; ++i)
        m[pick(from, m.size() - 1)] ^= static_cast<char>(1u << pick(0, 7));
      break;
    }
    case 1:  // truncation
      m.resize(pick(0, m.size() - 1));
      break;
    case 2: {  // splice: a run of donor bytes replaces or is inserted into a run of ours
      const std::size_t at = pick(from, m.size() - 1);
      const std::size_t src = pick(0, donor.size() - 1);
      const std::size_t len = pick(1, std::min<std::size_t>(32, donor.size() - src));
      if (rng.bernoulli(0.5)) {
        const auto first = donor.begin() + static_cast<std::ptrdiff_t>(src);
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), first,
                 first + static_cast<std::ptrdiff_t>(len));
      } else {
        for (std::size_t i = 0; i < len && at + i < m.size(); ++i) m[at + i] = donor[src + i];
      }
      break;
    }
    case 3:  // 4-byte count overwritten
      put(m, count_offset<std::uint32_t>(m, from, rng),
          kExtreme32[pick(0, std::size(kExtreme32) - 1)]);
      break;
    default:  // 8-byte count overwritten
      put(m, count_offset<std::uint64_t>(m, from, rng),
          kExtreme64[pick(0, std::size(kExtreme64) - 1)]);
      break;
  }
  return m;
}

struct Codec {
  std::string name;
  std::vector<std::vector<char>> seeds;
  Decoder decode;
  std::size_t header = 0;  ///< bytes `reseal` rewrites; mutations start after them
  std::function<void(std::vector<char>&)> reseal = {};  ///< recompute lengths/CRCs, if any
};

/// Checkpoints and frames carry a length and a CRC. Most mutants get both
/// recomputed, so they reach the field decoder instead of stopping at the
/// checksum.
void reseal_checkpoint(std::vector<char>& b) {
  constexpr std::size_t kHeader = 4 + 4 + 8 + 4;  // magic, version, size, crc
  if (b.size() < kHeader) return;
  put(b, 8, static_cast<std::uint64_t>(b.size() - kHeader));
  put(b, 16, util::crc32(b.data() + kHeader, b.size() - kHeader));
}

void reseal_frame(std::vector<char>& b) {
  constexpr std::size_t kOverhead = rpc::kFrameHeaderBytes + rpc::kFrameTrailerBytes;
  if (b.size() < kOverhead) return;
  put(b, 8, static_cast<std::uint32_t>(b.size() - kOverhead));
  put(b, b.size() - 4, util::crc32(b.data() + 4, b.size() - 8));
}

void decode_stream(const std::vector<char>& bytes) {
  rpc::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  rpc::Frame frame;
  while (decoder.next(frame)) {
  }
}

std::vector<Codec> codecs() {
  using compress::CompressionKind;
  std::vector<Codec> out;
  out.push_back({"RegisterExecutor",
                 {register_msg().serialize()},
                 [](const auto& b) { rpc::RegisterExecutorMsg::deserialize(b); }});
  out.push_back({"RegisterAck",
                 {register_ack_msg().serialize()},
                 [](const auto& b) { rpc::RegisterAckMsg::deserialize(b); }});
  out.push_back({"Heartbeat",
                 {heartbeat_msg().serialize()},
                 [](const auto& b) { rpc::HeartbeatMsg::deserialize(b); }});
  out.push_back({"TaskLease",
                 {lease_msg().serialize()},
                 [](const auto& b) { decode_lease(b); }});
  out.push_back({"TaskResult",
                 {result_msg(CompressionKind::kNone).serialize(),
                  result_msg(CompressionKind::kInt8).serialize(),
                  result_msg(CompressionKind::kTopK).serialize()},
                 [](const auto& b) { rpc::TaskResultMsg::deserialize(b); }});
  out.push_back({"TelemetrySnapshot",
                 {telemetry_snapshot().serialize()},
                 [](const auto& b) { obs::TelemetrySnapshot::deserialize(b); }});
  out.push_back({"Checkpoint",
                 {store::serialize_checkpoint(checkpoint(false)),
                  store::serialize_checkpoint(checkpoint(true))},
                 [](const auto& b) { store::deserialize_checkpoint(b); },
                 4 + 4 + 8 + 4,
                 reseal_checkpoint});
  out.push_back({"ModelBlob",
                 {feedforward_blob(), convtext_blob()},
                 [](const auto& b) { ml::deserialize_model(b); }});
  out.push_back({"Frame", {lease_frame()}, decode_stream, 0, reseal_frame});
  return out;
}

constexpr int kMutantsPerCodec = 2000;

TEST(SeededMutation, EveryMutantDecodesOrThrowsCheckError) {
  for (const Codec& codec : codecs()) {
    util::Rng rng(0xc0dec);
    int decoded = 0;
    int bad = 0;
    std::string first_bad;
    for (int i = 0; i < kMutantsPerCodec; ++i) {
      const auto& seed = codec.seeds[static_cast<std::size_t>(i) % codec.seeds.size()];
      const auto& donor = codec.seeds[static_cast<std::size_t>(i + 1) % codec.seeds.size()];
      std::vector<char> mutant = mutate(seed, donor, codec.header, rng);
      if (codec.reseal && rng.uniform_int(0, 3) != 0) codec.reseal(mutant);
      const Outcome outcome = decode_capped(codec.decode, mutant);
      if (outcome == Outcome::kDecoded) ++decoded;
      if (outcome == Outcome::kDecoded || outcome == Outcome::kCheckError) continue;
      if (bad++ == 0)
        first_bad = "mutant " + std::to_string(i) + " (" + std::to_string(mutant.size()) +
                    " bytes) ended in " + outcome_name(outcome);
    }
    EXPECT_EQ(bad, 0) << codec.name << ": " << bad << " of " << kMutantsPerCodec
                      << " mutants neither decoded nor threw CheckError; first: " << first_bad;
    // The seeds themselves must decode, or every mutant is rejected for a
    // reason that has nothing to do with the mutation.
    for (const auto& seed : codec.seeds)
      EXPECT_EQ(decode_capped(codec.decode, seed), Outcome::kDecoded) << codec.name;
    RecordProperty(codec.name + "_decoded", decoded);
  }
}

// ------------------------------------------------------- named probes
// Small inputs whose counts ask for far more memory than they hold.

void expect_check_error(const Decoder& decode, const std::vector<char>& bytes) {
  const Outcome outcome = decode_capped(decode, bytes);
  EXPECT_EQ(outcome, Outcome::kCheckError) << "ended in " << outcome_name(outcome);
}

TEST(NamedProbe, LeaseExampleCountBeyondPayload) {
  // A lease with no params and no examples is 167 bytes; its last 8 are the
  // example count. 2^22 examples would reserve 256 MiB before the first read.
  std::vector<char> bytes = rpc::TaskLeaseMsg{}.serialize();
  ASSERT_EQ(bytes.size(), 167u);
  put(bytes, bytes.size() - 8, std::uint64_t{1} << 22);
  expect_check_error([](const auto& b) { decode_lease(b); }, bytes);
}

/// A feed-forward blob header with dense features only: magic, kind,
/// dense_dim, front_end, vocab, embed_dim, hash_buckets.
std::vector<char> feedforward_header(std::uint64_t dense_dim) {
  std::vector<char> b = {'F', 'L', 'M', 'D', 1};
  b.resize(b.size() + 8 + 1 + 3 * 8, 0);
  put(b, 5, dense_dim);
  return b;
}

void append_u32(std::vector<char>& b, std::uint32_t v) {
  b.resize(b.size() + 4);
  put(b, b.size() - 4, v);
}

void append_u64(std::vector<char>& b, std::uint64_t v) {
  b.resize(b.size() + 8);
  put(b, b.size() - 8, v);
}

TEST(NamedProbe, ModelBlobHiddenCountBeyondBlob) {
  // 42 bytes ending in a hidden-layer count of 2^28: 2 GiB of sizes.
  std::vector<char> blob = feedforward_header(4);
  append_u32(blob, std::uint32_t{1} << 28);
  ASSERT_EQ(blob.size(), 42u);
  expect_check_error([](const auto& b) { ml::deserialize_model(b); }, blob);
}

TEST(NamedProbe, ModelBlobArchitectureBeyondWeights) {
  // 58 bytes: dense_dim 2^28 and 16 heads describe a 16 GiB weight matrix,
  // and the blob stores no weights at all.
  std::vector<char> blob = feedforward_header(std::uint64_t{1} << 28);
  append_u32(blob, 0);   // no hidden layers
  append_u64(blob, 16);  // heads
  append_u64(blob, 0);   // parameter count
  ASSERT_EQ(blob.size(), 58u);
  expect_check_error([](const auto& b) { ml::deserialize_model(b); }, blob);
}

TEST(NamedProbe, TelemetryCountsBeyondSnapshot) {
  // Each series count is at its 4,096 ceiling, with no series bytes behind it.
  for (int section = 0; section < 3; ++section) {
    std::vector<char> bytes = obs::TelemetrySnapshot{}.serialize();  // u16, u64, 3 x u32
    ASSERT_EQ(bytes.size(), 22u);
    put(bytes, 10 + 4 * static_cast<std::size_t>(section), std::uint32_t{4096});
    bytes.resize(14 + 4 * static_cast<std::size_t>(section));
    expect_check_error([](const auto& b) { obs::TelemetrySnapshot::deserialize(b); }, bytes);
  }
  // And a histogram whose bucket count is at its ceiling.
  obs::TelemetrySnapshot snap;
  snap.histograms = {{"h", 0.0, 1.0, 1, 0.5, {1}}};
  std::vector<char> bytes = snap.serialize();
  put(bytes, bytes.size() - 12, std::uint32_t{4096});
  expect_check_error([](const auto& b) { obs::TelemetrySnapshot::deserialize(b); }, bytes);
}

TEST(ModelBlob, UnknownFrontEndRejected) {
  // Dense features only, so an unknown front end would not change the
  // parameter count: only the enum check can reject it.
  ml::FeedForwardConfig cfg;
  cfg.dense_dim = 3;
  cfg.hidden = {2};
  std::vector<char> blob = model_blob(ml::FeedForwardModel(cfg));
  blob[4 + 1 + 8] = 3;  // front_end follows magic, kind and dense_dim
  EXPECT_THROW(ml::deserialize_model(blob), util::CheckError);
}

TEST(ModelBlob, TrailingBytesRejected) {
  std::vector<char> blob = feedforward_blob();
  blob.push_back(0);
  EXPECT_THROW(ml::deserialize_model(blob), util::CheckError);
  blob.resize(blob.size() + 3, 0);  // a whole extra float
  EXPECT_THROW(ml::deserialize_model(blob), util::CheckError);
}

TEST(TaskLease, UnknownLossKindRejected) {
  rpc::TaskLeaseMsg lease = lease_msg();
  lease.loss_kind = 2;
  EXPECT_THROW(decode_lease(lease.serialize()), util::CheckError);
}

}  // namespace
}  // namespace flint
