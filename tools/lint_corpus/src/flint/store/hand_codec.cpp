// Fixture: a format under src/ that walks its own offset with read_pod trips
// byte-codec, once per call; an allow() comment on the line above suppresses.
#include "flint/util/bytes.h"

namespace flint::store {

std::uint64_t read_header(const std::vector<char>& in) {
  std::size_t offset = 0;
  auto version = util::read_pod<std::uint32_t>(in, offset);
  auto size = util::read_pod<std::uint64_t>(in, offset);
  // flint-lint: allow(byte-codec): fixture for the suppression path
  auto crc = util::read_pod<std::uint32_t>(in, offset);
  return version + size + crc;
}

}  // namespace flint::store
