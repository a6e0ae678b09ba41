// Byte-level (de)serialization helpers shared by every FLINT binary format
// (model blobs, checkpoints, rpc messages, telemetry snapshots).
//
// All object <-> byte conversions go through std::memcpy on
// static_assert-verified trivially-copyable types: no reinterpret_cast reads,
// no alignment assumptions, no aliasing UB — the sanitizer profiles and
// tools/flint_lint.py both key off this pattern.
#pragma once

#include <cstring>
#include <type_traits>
#include <vector>

#include "flint/util/check.h"

namespace flint::util {

/// Append the object representation of `v` to `out`.
template <typename T>
void append_pod(std::vector<char>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.insert(out.end(), buf, buf + sizeof(T));
}

/// Read one T from `in` at `offset`, advancing it. Throws CheckError on a
/// truncated buffer.
template <typename T>
T read_pod(const std::vector<char>& in, std::size_t& offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  FLINT_CHECK_LE(offset, in.size());
  FLINT_CHECK_LE(sizeof(T), in.size() - offset);
  T v;
  std::memcpy(&v, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return v;
}

/// Append `count` contiguous Ts starting at `data`.
template <typename T>
void append_pod_array(std::vector<char>& out, const T* data, std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (count == 0) return;
  std::size_t old = out.size();
  out.resize(old + count * sizeof(T));
  std::memcpy(out.data() + old, data, count * sizeof(T));
}

/// Read `count` contiguous Ts from `in` at `offset` into `dst`, advancing
/// the offset. Throws CheckError on a truncated buffer.
template <typename T>
void read_pod_array(const std::vector<char>& in, std::size_t& offset, T* dst,
                    std::size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (count == 0) return;
  // Division form: `offset + count * sizeof(T)` wraps size_t for a corrupt
  // huge count, silently bypassing the bound.
  FLINT_CHECK_LE(offset, in.size());
  FLINT_CHECK_LE(count, (in.size() - offset) / sizeof(T));
  std::memcpy(dst, in.data() + offset, count * sizeof(T));
  offset += count * sizeof(T);
}

}  // namespace flint::util
