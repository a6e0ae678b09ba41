// Fixture: the codec header itself may define and call read_pod.
#pragma once

namespace flint::util {

template <typename T>
T read_pod(const std::vector<char>& in, std::size_t& offset);

template <typename T>
T read_twice(const std::vector<char>& in, std::size_t& offset) {
  read_pod<T>(in, offset);
  return read_pod<T>(in, offset);
}

}  // namespace flint::util
