// The simulator's one time-ordered heap, behind the event queue and the
// arrival scheduler's requeue heap: time ties pop first in, first out (the
// async scheduler must "dispatch them to workers in the correct order", §3.4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flint/util/check.h"

namespace flint::sim {

/// Virtual seconds since simulation start.
using VirtualTime = double;

/// Min-heap by (time, seq) of plain-data entries, each a struct with a
/// `VirtualTime time` and a `std::uint64_t seq` member, kept in one vector
/// with push_heap/pop_heap. push() assigns the seq; pop() moves the entry out.
template <typename Entry>
class TimeHeap {
 public:
  /// Insert `entry` (finite time) under the next seq; returns that seq.
  std::uint64_t push(Entry entry) {
    FLINT_CHECK_FINITE(entry.time);
    entry.seq = next_seq_++;
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), later);
    return next_seq_ - 1;
  }

  /// The earliest entry; top() and pop() require !empty().
  const Entry& top() const { return heap_.front(); }
  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// The seq the next push() assigns.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Every entry in pop order, without consuming any.
  std::vector<Entry> entries() const {
    std::vector<Entry> out = heap_;
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) { return later(b, a); });
    return out;
  }

  /// Replace the contents with `entries` (any order), each keeping its seq,
  /// and number later pushes from `next_seq`. A non-finite time, a time
  /// before `not_before`, a seq at or past `next_seq` or a seq two entries
  /// share throws CheckError: a corrupt checkpoint must not replay an event
  /// twice.
  void restore(std::vector<Entry> entries, std::uint64_t next_seq, VirtualTime not_before) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    for (std::size_t i = 0; i < entries.size(); ++i) {
      FLINT_CHECK_FINITE(entries[i].time);
      FLINT_CHECK_GE(entries[i].time, not_before);
      FLINT_CHECK_LT(entries[i].seq, next_seq);
      if (i > 0) FLINT_CHECK_NE(entries[i - 1].seq, entries[i].seq);
    }
    std::make_heap(entries.begin(), entries.end(), later);
    heap_ = std::move(entries);
    next_seq_ = next_seq;
  }

 private:
  /// Heap order: true when `a` pops after `b`.
  static bool later(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace flint::sim
