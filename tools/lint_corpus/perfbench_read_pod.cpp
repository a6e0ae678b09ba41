// Fixture: read_pod outside src/ (a benchmark peeking at one field of a
// frame) is not a binary format, so byte-codec stays quiet.
std::uint64_t lease_id_of(const std::vector<char>& payload) {
  std::size_t offset = sizeof(std::uint16_t);
  return flint::util::read_pod<std::uint64_t>(payload, offset);
}
