// The one byte codec behind every FLINT binary format: rpc messages and
// frame headers, checkpoints, telemetry snapshots and model blobs.
//
// A format describes each record once, as a field walk templated on the
// codec direction:
//
//   template <typename IO, util::RecordOf<Msg> M>
//   void walk(IO& io, M& m) {
//     io.field(m.id);
//     io.string(m.name, kNameCount);
//     io.records(m.items, kItemCount, kItemMinBytes, [](auto& io, auto& item) { ... });
//   }
//
// serialize runs it with a ByteWriter over a const record, deserialize with a
// ByteReader over a fresh one, so the two directions cannot drift apart. Both
// classes offer the same operations: plain fields (PODs; bool as u8 0/1, read
// as != 0), range-checked enums (wire width and maximum from an
// EnumCode<Width, E>), counted strings/vectors/byte blobs and counted record
// sequences (count width and ceiling from a Count<Width>), and fixed magic and
// version tags.
//
// Bounds: every read is checked against the bytes left, and every count is
// checked against its ceiling and against remaining / minimum element size
// *before* anything is allocated, so a hostile count can neither wrap the
// bound nor ask for more memory than the input could fill. A violation throws
// CheckError; finish() rejects trailing bytes.
//
// Object <-> byte conversions go through std::memcpy on static_assert-verified
// trivially copyable types: no reinterpret_cast reads, no alignment
// assumptions, no aliasing UB.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "flint/util/check.h"

namespace flint::util {

/// How one kind of counted field stores its count: as a `Width` on the wire,
/// never above `max`.
template <typename Width>
struct Count {
  static_assert(std::is_unsigned_v<Width>);
  std::uint64_t max = std::numeric_limits<Width>::max();
};

/// How an enum (or an enum-valued integer) `E` is stored: as a `Width` on
/// the wire, never above `max`.
template <typename Width, typename E>
struct EnumCode {
  static_assert(std::is_unsigned_v<Width>);
  E max;
};

/// A walk's record parameter: `const T` when encoding, `T` when decoding.
template <typename R, typename T>
concept RecordOf = std::same_as<std::remove_const_t<R>, T>;

/// Encoding direction: appends fields to a byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Write into `buffer`'s storage from its start, reusing its capacity.
  explicit ByteWriter(std::vector<char>&& buffer) : out_(std::move(buffer)) {
    out_.resize(out_.capacity());
  }

  void reserve(std::size_t n) {
    if (out_.size() - size_ < n) grow(n);
  }
  const char* data() const { return out_.data(); }
  std::size_t size() const { return size_; }
  std::vector<char> take() {
    out_.resize(size_);
    size_ = 0;
    return std::move(out_);
  }

  void raw(const void* data, std::size_t n) {
    if (n == 0) return;
    reserve(n);
    std::memcpy(out_.data() + size_, data, n);
    size_ += n;
  }

  template <typename T>
  void field(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(!std::is_enum_v<T>, "enums go through enumerated()");
    raw(&v, sizeof(T));
  }
  void field(const bool& v) { field(static_cast<std::uint8_t>(v ? 1 : 0)); }

  template <typename W, typename E>
  void enumerated(const E& v, EnumCode<W, E> code) {
    FLINT_CHECK_LE(static_cast<W>(v), static_cast<W>(code.max));
    field(static_cast<W>(v));
  }

  template <typename T>
  void version(const T& v, const char* /*what*/) {
    field(v);
  }
  template <std::size_t N>
  void magic(const char (&m)[N], const char* /*what*/) {
    raw(m, N);
  }

  template <typename W>
  void string(const std::string& s, Count<W> limit) {
    count(s.size(), limit);
    raw(s.data(), s.size());
  }

  template <typename T, typename W>
  void vector(const std::vector<T>& v, Count<W> limit) {
    static_assert(std::is_trivially_copyable_v<T>);
    count(v.size(), limit);
    raw(v.data(), v.size() * sizeof(T));
  }

  /// A counted sequence of records, each written by `walk(*this, record)`.
  template <typename T, typename W, typename Walk>
  void records(const std::vector<T>& v, Count<W> limit, std::size_t /*min_bytes*/, Walk&& walk) {
    count(v.size(), limit);
    for (const T& r : v) walk(*this, r);
  }

 private:
  template <typename W>
  void count(std::size_t n, Count<W> limit) {
    FLINT_CHECK_LE(static_cast<std::uint64_t>(n), limit.max);
    field(static_cast<W>(n));
  }

  // Out of line, so a field write is a bounds test plus a memcpy. Inlined
  // into every write, vector growth also draws false -Wstringop-overflow and
  // -Warray-bounds warnings from GCC 12.
  [[gnu::noinline]] void grow(std::size_t n) {
    out_.resize(std::max(size_ + n, 2 * out_.size()));
  }

  std::vector<char> out_;  ///< bytes [0, size_) are written; the rest is room
  std::size_t size_ = 0;
};

/// Decoding direction: reads fields from a byte view it does not own.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<char>& bytes) : ByteReader(bytes.data(), bytes.size()) {}

  std::size_t remaining() const { return size_ - offset_; }

  /// The next `n` bytes, consumed.
  const char* raw(std::size_t n) {
    FLINT_CHECK_MSG(n <= remaining(), "truncated input: " << n << " byte(s) needed at offset "
                                                          << offset_ << ", " << remaining()
                                                          << " left");
    const char* p = data_ + offset_;
    offset_ += n;
    return p;
  }

  template <typename T>
  void field(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(!std::is_enum_v<T>, "enums go through enumerated()");
    std::memcpy(&v, raw(sizeof(T)), sizeof(T));
  }
  void field(bool& v) {
    std::uint8_t b = 0;
    field(b);
    v = b != 0;
  }
  template <typename T>
  T read() {
    T v{};
    field(v);
    return v;
  }

  template <typename W, typename E>
  void enumerated(E& v, EnumCode<W, E> code) {
    const W got = read<W>();
    FLINT_CHECK_MSG(got <= static_cast<W>(code.max),
                    "enum value " << +got << " is out of range (max "
                                  << +static_cast<W>(code.max) << ")");
    v = static_cast<E>(got);
  }

  template <typename T>
  void version(const T& want, const char* what) {
    const T got = read<T>();
    FLINT_CHECK_MSG(got == want,
                    what << " version " << got << " does not match this build's " << want);
  }
  template <std::size_t N>
  void magic(const char (&m)[N], const char* what) {
    FLINT_CHECK_MSG(std::memcmp(raw(N), m, N) == 0, "bad " << what << " magic");
  }

  template <typename W>
  void string(std::string& s, Count<W> limit) {
    const std::size_t n = count(limit, 1);
    s.assign(raw(n), n);
  }

  template <typename T, typename W>
  void vector(std::vector<T>& v, Count<W> limit) {
    static_assert(std::is_trivially_copyable_v<T>);
    v.resize(count(limit, sizeof(T)));
    if (!v.empty()) std::memcpy(v.data(), raw(v.size() * sizeof(T)), v.size() * sizeof(T));
  }

  /// A counted sequence of records whose encodings take at least
  /// `min_bytes` each, each read by `walk(*this, record)`.
  template <typename T, typename W, typename Walk>
  void records(std::vector<T>& v, Count<W> limit, std::size_t min_bytes, Walk&& walk) {
    v.resize(count(limit, min_bytes));
    for (T& r : v) walk(*this, r);
  }

  /// CheckError unless every byte was consumed.
  void finish(const char* what) const {
    FLINT_CHECK_MSG(remaining() == 0, what << " has " << remaining() << " trailing byte(s)");
  }

 private:
  /// A count of elements at least `min_bytes` (>= 1) each, bounded by its
  /// ceiling and by the bytes left.
  template <typename W>
  std::size_t count(Count<W> limit, std::size_t min_bytes) {
    FLINT_DCHECK_GT(min_bytes, std::size_t{0});
    const std::uint64_t n = read<W>();
    FLINT_CHECK_MSG(n <= limit.max, "count " << n << " exceeds its ceiling " << limit.max);
    FLINT_CHECK_MSG(n <= remaining() / min_bytes,
                    "count " << n << " of elements >= " << min_bytes << " byte(s) exceeds the "
                             << remaining() << " byte(s) left");
    return static_cast<std::size_t>(n);
  }

  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

/// Read one T from `in` at `offset`, advancing it. Throws CheckError on a
/// truncated buffer. For peeking at a single field; formats use ByteReader.
template <typename T>
T read_pod(const std::vector<char>& in, std::size_t& offset) {
  FLINT_CHECK_LE(offset, in.size());
  ByteReader reader(in.data() + offset, in.size() - offset);
  const T v = reader.read<T>();
  offset += sizeof(T);
  return v;
}

}  // namespace flint::util
