#include "flint/compress/quantize.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "flint/ml/kernels/kernels.h"
#include "flint/util/check.h"

namespace flint::compress {

QuantizedUpdate quantize_int8(std::span<const float> update) {
  FLINT_CHECK(!update.empty());
  // max_abs is order-independent, so the SIMD path is exact. The conversion
  // loop stays scalar: std::lround rounds half away from zero, which SIMD
  // round-to-even instructions would not reproduce.
  float max_abs = ml::kernels::active().max_abs(update.data(), update.size());
  QuantizedUpdate q;
  q.scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  q.values.reserve(update.size());
  for (float v : update) {
    auto scaled = static_cast<int>(std::lround(v / q.scale));
    q.values.push_back(static_cast<std::int8_t>(std::clamp(scaled, -127, 127)));
  }
  return q;
}

std::vector<float> dequantize(const QuantizedUpdate& q) {
  std::vector<float> out;
  out.reserve(q.values.size());
  for (std::int8_t v : q.values) out.push_back(static_cast<float>(v) * q.scale);
  return out;
}

SparseUpdate top_k_sparsify(std::span<const float> update, std::size_t k) {
  FLINT_CHECK(!update.empty());
  SparseUpdate s;
  s.dim = static_cast<std::uint32_t>(update.size());
  k = std::min(k, update.size());
  if (k == 0) return s;
  // nth_element on indices by |value|, then sort the kept indices.
  std::vector<std::uint32_t> order(update.size());
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   order.end(), [&](std::uint32_t a, std::uint32_t b) {
                     return std::abs(update[a]) > std::abs(update[b]);
                   });
  order.resize(k);
  std::sort(order.begin(), order.end());
  s.indices = std::move(order);
  s.values.reserve(k);
  for (std::uint32_t idx : s.indices) s.values.push_back(update[idx]);
  return s;
}

std::vector<float> densify(const SparseUpdate& s) {
  std::vector<float> out(s.dim, 0.0f);
  FLINT_CHECK(s.indices.size() == s.values.size());
  for (std::size_t i = 0; i < s.indices.size(); ++i) {
    FLINT_CHECK_MSG(s.indices[i] < s.dim, "sparse index out of range");
    out[s.indices[i]] = s.values[i];
  }
  return out;
}

std::size_t apply_compression(std::vector<float>& update, const CompressionConfig& config) {
  switch (config.kind) {
    case CompressionKind::kNone:
      return update.size() * sizeof(float);
    case CompressionKind::kInt8: {
      QuantizedUpdate q = quantize_int8(update);
      std::size_t bytes = q.payload_bytes();
      update = dequantize(q);
      return bytes;
    }
    case CompressionKind::kTopK: {
      FLINT_CHECK(config.top_k_fraction > 0.0 && config.top_k_fraction <= 1.0);
      auto k = static_cast<std::size_t>(
          std::ceil(config.top_k_fraction * static_cast<double>(update.size())));
      SparseUpdate s = top_k_sparsify(update, k);
      std::size_t bytes = s.payload_bytes();
      update = densify(s);
      return bytes;
    }
  }
  return update.size() * sizeof(float);
}

std::size_t compressed_bytes(std::size_t dim, const CompressionConfig& config) {
  FLINT_CHECK(dim > 0);
  switch (config.kind) {
    case CompressionKind::kNone:
      return dim * sizeof(float);
    case CompressionKind::kInt8:
      return dim + sizeof(float);
    case CompressionKind::kTopK: {
      auto k = static_cast<std::size_t>(
          std::ceil(config.top_k_fraction * static_cast<double>(dim)));
      return k * (sizeof(std::uint32_t) + sizeof(float)) + sizeof(std::uint32_t);
    }
  }
  return dim * sizeof(float);
}

}  // namespace flint::compress
