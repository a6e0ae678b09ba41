// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for integrity
// checking of FLINT's binary blobs. Two formats use it: every rpc frame
// carries one over its protocol bytes and payload (rpc/frame.h), and every
// checkpoint file pairs one with a length header (store/checkpoint.h), so a
// torn or bit-flipped frame or file is detected before any field is trusted —
// corruption must fail loudly, never deserialize into garbage.
//
// Slicing-by-8: eight bytes per step through eight 256-entry tables, the
// bytewise table loop for the tail. About 0.6 ns a byte on a 4-vCPU x86-64
// VM, which is ~13 µs for a fedavg_fleet lease frame (22,939 bytes).
#pragma once

#include <cstddef>
#include <cstdint>

namespace flint::util {

/// CRC-32 of `size` bytes at `data`. `seed` chains incremental computation:
/// crc32(b, n) == crc32(b + k, n - k, crc32(b, k)).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

}  // namespace flint::util
