#include "flint/util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace flint::util {

namespace {

// The main loop loads 4-byte words with memcpy and indexes the tables with
// their low byte first, which is the byte order of every FLINT wire format.
static_assert(std::endian::native == std::endian::little,
              "crc32's slicing-by-8 loop assumes a little-endian host");

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the classic bytewise table; tables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight lookups fold eight bytes at once.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace flint::util
