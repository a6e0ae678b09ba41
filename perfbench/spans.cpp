#include "spans.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

/// Spans of one name written to the file; the rest are counted under
/// "droppedEvents". Metrics always use every span, so this only bounds the
/// file (a population_stream run pulls ~10^5 windows per repetition).
constexpr std::size_t kMaxEventsPerName = 20'000;

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int SpanRecorder::begin(const char* name) {
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now();
  s.end = -1.0;  // open
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void SpanRecorder::end(int id) {
  if (open_.empty() || open_.back() != id) throw std::logic_error("span closed out of order");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end = now();
}

void SpanRecorder::add(const char* name, double start, double end, int track) {
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = (track == 0 && !open_.empty()) ? open_.back() : -1;
  s.track = track;
  s.start = start;
  s.end = end;
  spans_.push_back(s);
}

std::vector<const Span*> SpanRecorder::named(std::string_view name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_)
    if (s.end >= s.start && name == s.name) out.push_back(&s);
  return out;
}

std::vector<Interval> SpanRecorder::children_of(int id) const {
  std::vector<Interval> out;
  for (const Span& s : spans_)
    if (s.track == 0 && s.parent == id && s.end >= s.start) out.push_back(s.interval());
  return out;
}

double SpanRecorder::total(std::string_view name, int parent) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.parent == parent && s.end >= s.start && name == s.name) sum += s.end - s.start;
  return sum;
}

std::size_t SpanRecorder::count(std::string_view name, int parent) const {
  std::size_t n = 0;
  for (const Span& s : spans_)
    if (s.parent == parent && s.end >= s.start && name == s.name) ++n;
  return n;
}

void SpanRecorder::write_chrome_trace(const std::string& path,
                                      const std::string& other_data) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[128];
  std::map<std::string_view, std::size_t> written;
  for (const Span& s : spans_) {
    if (s.end < s.start) continue;
    std::string_view name(s.name);
    if (++written[name] > kMaxEventsPerName) continue;
    std::string_view layer = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,",
                  s.start * 1e6, (s.end - s.start) * 1e6, s.track + 1);
    out << (first ? "" : ",\n") << "{\"name\":\"" << name << "\",\"cat\":\"" << layer
        << "\",\"ph\":\"X\"," << buf << "\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << "}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"droppedEvents\":{";
  first = true;
  for (const auto& [name, n] : written) {
    if (n <= kMaxEventsPerName) continue;
    out << (first ? "" : ",") << "\"" << name << "\":" << n - kMaxEventsPerName;
    first = false;
  }
  out << "},\"otherData\":" << other_data << "}\n";
  if (!out.flush()) throw std::runtime_error("short write to span file " + path);
}

}  // namespace perfbench
