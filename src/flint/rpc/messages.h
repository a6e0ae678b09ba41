// The six leader/executor message schemas (DESIGN.md §14), each serialized
// into a frame payload by one util/bytes.h field walk. Every schema leads with
// its own u16 version — independent of the frame protocol version — so a
// single message can evolve without bumping the whole wire.
//
// A TaskLease carries the *complete* input set of
// fl::compute_client_update: global params, the client's examples, the local
// train config, the run seed, and the DP/compression settings. That makes
// remote execution a pure function of the lease — any executor, any process,
// any arrival order produces the same bytes — which is what keeps multi-
// process runs bit-identical to the loopback path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flint/compress/quantize.h"
#include "flint/ml/batch.h"

namespace flint::rpc {

/// executor -> leader: first message on a fresh connection.
struct RegisterExecutorMsg {
  static constexpr std::uint16_t kSchemaVersion = 1;

  std::string name;         ///< diagnostic label, e.g. "pid:4242"
  std::uint32_t slots = 1;  ///< concurrent leases the executor will accept

  std::vector<char> serialize() const;
  static RegisterExecutorMsg deserialize(const std::vector<char>& bytes);
};

/// leader -> executor: admission + the run-static context. The model blob
/// (ml::serialize_model) and dense_dim configure the executor's LocalTrainer
/// replica once; everything per-run-per-trial (seed, hyper-parameters)
/// travels in each TaskLease so one registration serves many trials.
struct RegisterAckMsg {
  static constexpr std::uint16_t kSchemaVersion = 2;

  std::uint64_t executor_id = 0;
  double heartbeat_interval_s = 0.5;  ///< cadence the executor must beat at
  double heartbeat_timeout_s = 10.0;  ///< leader declares death after this
  std::uint64_t dense_dim = 0;
  /// Leader tracer wall clock (microseconds since leader tracer epoch) at the
  /// moment the ack was built; 0 when the leader runs without telemetry. The
  /// executor's clock-alignment offset is `leader_wall_us - local_wall_us`
  /// sampled at receipt (DESIGN.md §15).
  double leader_wall_us = 0.0;
  std::vector<char> model_blob;  ///< empty for model-free runs

  std::vector<char> serialize() const;
  static RegisterAckMsg deserialize(const std::vector<char>& bytes);
};

/// executor -> leader: liveness beacon, optionally carrying one delta window
/// of the executor's metric registry.
struct HeartbeatMsg {
  static constexpr std::uint16_t kSchemaVersion = 2;

  std::uint64_t executor_id = 0;
  std::uint64_t seq = 0;          ///< monotonic per executor
  std::uint32_t busy_leases = 0;  ///< leases held but not yet resulted
  /// Serialized obs::TelemetrySnapshot (independently versioned); empty when
  /// the executor ships no telemetry. Opaque at this layer on purpose: metric
  /// shipping evolves without touching the liveness protocol.
  std::vector<char> telemetry;

  std::vector<char> serialize() const;
  static HeartbeatMsg deserialize(const std::vector<char>& bytes);
};

/// leader -> executor: one client-training task, self-contained.
struct TaskLeaseMsg {
  static constexpr std::uint16_t kSchemaVersion = 2;

  std::uint64_t lease_id = 0;  ///< leader-assigned, unique per dispatch attempt
  std::uint64_t task_id = 0;   ///< simulation task id (RNG stream key)
  std::uint64_t client_id = 0;
  std::uint64_t round = 0;
  std::uint64_t seed = 0;              ///< run seed (kRngStreamDp derivation)
  std::uint64_t dp_participants = 0;   ///< cohort size for DP noise splitting

  // fl::LocalTrainConfig, field for field.
  double lr = 0.05;
  std::int32_t epochs = 1;
  std::uint64_t batch_size = 16;
  std::uint32_t loss_kind = 0;  ///< data::LossKind as its underlying value
  /// data::LossKind::kPairwiseRanking; deserialize rejects anything above.
  static constexpr std::uint32_t kMaxLossKind = 1;
  double clip_norm = 0.0;
  double momentum = 0.0;
  double prox_mu = 0.0;

  // privacy::DpConfig, present iff has_dp.
  bool has_dp = false;
  double dp_clip_norm = 1.0;
  double dp_noise_multiplier = 1.0;
  double dp_delta = 1e-6;

  // compress::CompressionConfig.
  std::uint32_t compression_kind = 0;  ///< compress::CompressionKind value
  double top_k_fraction = 0.1;

  // Trace-context propagation (DESIGN.md §15): the leader's dispatch span.
  // Zero when the leader runs without tracing; diagnostic only — never an
  // input to compute_client_update, so stamping cannot perturb results.
  std::uint64_t trace_id = 0;         ///< groups this lease's spans fleet-wide
  std::uint64_t parent_span_id = 0;   ///< the dispatch span to parent under

  std::vector<float> params;          ///< global model parameters
  std::vector<ml::Example> examples;  ///< the client's local shard

  std::vector<char> serialize() const;
  /// Decode into `into`, overwriting every field and reusing its vectors'
  /// storage: an executor that keeps one message decodes a lease of a shape
  /// it has seen without allocating. On CheckError `into` is partly written.
  static void deserialize(const std::vector<char>& bytes, TaskLeaseMsg& into);
};

/// executor -> leader: the computed update for one lease.
///
/// Schema v3 makes compression real on the wire: the delta travels in the
/// representation `compression_kind` names — raw f32 (kNone), int8 quantized
/// (kInt8: scale + one byte per coordinate), or top-k sparse (kTopK: dim +
/// index/value pairs) — instead of always being a dense float vector. The
/// executor encodes with encode_delta(); the leader reconstructs with
/// take_delta(), whose output is bit-identical to the in-process
/// compress::apply_compression round trip, so remote aggregation stays on
/// the PR 4 bit-identity contract (within a pinned kernel path).
struct TaskResultMsg {
  static constexpr std::uint16_t kSchemaVersion = 3;

  std::uint64_t lease_id = 0;
  std::uint64_t task_id = 0;
  std::uint64_t executor_id = 0;
  bool ok = false;
  std::string error;  ///< CheckError text when !ok

  // Trace-context propagation: echoes the lease's trace id plus the
  // executor's lease-execution span id. Zero when tracing is off either side.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  /// compress::CompressionKind of the delta payload. Exactly one of `delta`,
  /// `quantized`, `sparse` is populated, matching this tag.
  std::uint32_t compression_kind = 0;
  std::vector<float> delta;             ///< kNone: post-DP parameter delta
  compress::QuantizedUpdate quantized;  ///< kInt8 payload
  compress::SparseUpdate sparse;        ///< kTopK payload

  double weight = 0.0;  ///< aggregation weight (1.0 under DP)
  double mean_loss = 0.0;
  std::uint64_t examples = 0;

  /// Move `dense` into the representation `config` selects and set
  /// compression_kind. kTopK keeps ceil(top_k_fraction * dim) coordinates —
  /// the same k compress::apply_compression uses, so decode matches the
  /// in-process lossy round trip exactly.
  void encode_delta(std::vector<float> dense, const compress::CompressionConfig& config);

  /// Reconstruct the dense delta from whichever representation is populated,
  /// consuming it. For kInt8/kTopK this equals apply_compression's output on
  /// the executor's dense delta, bit for bit.
  std::vector<float> take_delta();

  /// Bytes the encoded delta contributes to the serialized payload
  /// (excluding the per-representation length/dim headers).
  std::size_t payload_bytes() const;

  std::vector<char> serialize() const;
  static TaskResultMsg deserialize(const std::vector<char>& bytes);
};

/// leader -> executor: drain outstanding work and exit cleanly.
struct ShutdownMsg {
  static constexpr std::uint16_t kSchemaVersion = 1;

  std::string reason;

  std::vector<char> serialize() const;
};

}  // namespace flint::rpc
