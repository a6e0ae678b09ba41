// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code, around its calls into each FLINT layer and inside
// the decorators it plants on the interfaces the runners pull through; the
// program under test is never instrumented from here.
//
// Every span name starts with its layer ("device.", "fl.", "rpc.", ...), so
// the layer is recoverable from the name alone. All spans on track 0 are
// recorded from the simulation thread and form a call tree (parent ids come
// from a stack of open spans); track 1 holds asynchronous spans, such as a
// lease's round trip, which overlap each other freely.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "span_math.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string, "<layer>.<what>"
  int id = 0;
  int parent = -1;  ///< -1 at the root
  int track = 0;    ///< 0 = simulation-thread call tree, 1 = async
  double start = 0.0;
  double end = 0.0;

  Interval interval() const { return {start, end}; }
};

class SpanRecorder {
 public:
  /// A disabled recorder keeps nothing and never reads the clock.
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  /// Switch recording on or off between root spans (the traced run records
  /// only its traced repetitions).
  void set_enabled(bool on) { enabled_ = on; }

  /// Seconds since the recorder was created.
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  }

  /// Open a span on track 0 under the innermost open span; returns its id.
  int begin(const char* name);
  /// Close the innermost open span, which must be `id`.
  void end(int id);
  /// Record a finished span under the innermost open span (or on `track` 1).
  void add(const char* name, double start, double end, int track = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Finished spans named `name`.
  std::vector<const Span*> named(std::string_view name) const;
  /// Track-0 children of span `id`.
  std::vector<Interval> children_of(int id) const;
  /// Summed duration and count of spans named `name` whose parent is `parent`.
  double total(std::string_view name, int parent) const;
  std::size_t count(std::string_view name, int parent) const;

  /// Write the spans as a Chrome trace-event file (loadable in Perfetto),
  /// at most 20,000 per name; `other_data` is a JSON object stored under
  /// "otherData".
  void write_chrome_trace(const std::string& path, const std::string& other_data) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< ids of open track-0 spans, innermost last
};

/// RAII span on track 0; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.enabled() ? recorder.begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) recorder_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench
