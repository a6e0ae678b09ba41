// Gradient-update compression. The paper's duration and TEE-bandwidth
// models are linear in the update size M (taskDuration(k) = t*E*|D_k| + 2M/N,
// §3.4-3.5), and §4.2 surveys embedding-compression techniques — so FLINT
// ships the standard update compressors: symmetric int8 quantization and
// top-k sparsification.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace flint::compress {

/// Symmetric linear int8 quantization of a float vector.
struct QuantizedUpdate {
  std::vector<std::int8_t> values;
  float scale = 1.0f;  ///< dequantized = value * scale

  std::size_t dim() const { return values.size(); }
  /// Serialized payload: one byte per value + the scale.
  std::size_t payload_bytes() const { return values.size() + sizeof(float); }
};

/// Quantize to int8 with a per-update scale (max-abs calibration).
QuantizedUpdate quantize_int8(std::span<const float> update);

/// Reconstruct floats.
std::vector<float> dequantize(const QuantizedUpdate& q);

/// Top-k sparsification: keep the k largest-magnitude coordinates.
struct SparseUpdate {
  std::uint32_t dim = 0;
  std::vector<std::uint32_t> indices;  ///< strictly increasing
  std::vector<float> values;

  /// Serialized payload: 4B index + 4B value per kept coordinate + header.
  std::size_t payload_bytes() const {
    return indices.size() * (sizeof(std::uint32_t) + sizeof(float)) + sizeof(std::uint32_t);
  }
};

/// Keep the k largest-|v| coordinates (all, if k >= dim).
SparseUpdate top_k_sparsify(std::span<const float> update, std::size_t k);

/// Expand back to a dense vector (zeros elsewhere).
std::vector<float> densify(const SparseUpdate& s);

/// How a run compresses client updates.
enum class CompressionKind {
  kNone,
  kInt8,  ///< 4x smaller updates, small quantization noise
  kTopK,  ///< keep `top_k_fraction` of coordinates
};

struct CompressionConfig {
  CompressionKind kind = CompressionKind::kNone;
  double top_k_fraction = 0.1;  ///< used by kTopK

  bool enabled() const { return kind != CompressionKind::kNone; }
};

/// Apply the configured lossy round trip to `update` in place and return the
/// compressed payload size in bytes (the M the network would carry).
std::size_t apply_compression(std::vector<float>& update, const CompressionConfig& config);

/// Compressed update size for a model of `dim` parameters (for duration
/// model calibration before any update exists).
std::size_t compressed_bytes(std::size_t dim, const CompressionConfig& config);

}  // namespace flint::compress
