#include "flint/device/availability.h"

#include <algorithm>
#include <cmath>

#include "flint/device/session_stream.h"
#include "flint/util/check.h"

namespace flint::device {

bool AvailabilityCriteria::accepts(const Session& session, const DeviceCatalog& catalog) const {
  if (require_wifi && !session.wifi) return false;
  if (session.battery_pct < min_battery_pct) return false;
  if (require_foreground && !session.foreground) return false;
  if (session.duration() < min_session_s) return false;
  const DeviceProfile& dev = catalog.profile(session.device_index);
  if (min_os_release > 0 && dev.os_release < min_os_release) return false;
  if (!allowed_devices.empty() &&
      std::find(allowed_devices.begin(), allowed_devices.end(), session.device_index) ==
          allowed_devices.end())
    return false;
  return true;
}

bool window_order(const AvailabilityWindow& a, const AvailabilityWindow& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.client_id != b.client_id) return a.client_id < b.client_id;
  return a.end < b.end;
}

AvailabilityTrace::AvailabilityTrace(std::vector<AvailabilityWindow> windows)
    : windows_(std::move(windows)) {
  // Windows come from session logs / generators (config-derived data): every
  // downstream scheduler invariant assumes finite, non-empty windows.
  for (const auto& w : windows_) {
    FLINT_CHECK_FINITE(w.start);
    FLINT_CHECK_FINITE(w.end);
    FLINT_CHECK_LT(w.start, w.end);
  }
  std::sort(windows_.begin(), windows_.end(), window_order);
}

std::size_t AvailabilityTrace::client_count() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(windows_.size());
  for (const auto& w : windows_) ids.push_back(w.client_id);
  std::sort(ids.begin(), ids.end());
  return static_cast<std::size_t>(std::unique(ids.begin(), ids.end()) - ids.begin());
}

TraceTime AvailabilityTrace::horizon() const {
  TraceTime h = 0.0;
  for (const auto& w : windows_) h = std::max(h, w.end);
  return h;
}

util::Histogram AvailabilityTrace::hourly_availability() const {
  double h = std::max(horizon(), kSecondsPerHour);
  auto bins = static_cast<std::size_t>(std::ceil(h / kSecondsPerHour));
  util::Histogram hist(0.0, static_cast<double>(bins) * kSecondsPerHour, bins);
  for (const auto& w : windows_) {
    // Credit each hour bin the window overlaps, weighted by overlap fraction
    // so short windows don't over-count.
    auto first = static_cast<std::size_t>(w.start / kSecondsPerHour);
    auto last = static_cast<std::size_t>((w.end - 1e-9) / kSecondsPerHour);
    for (std::size_t b = first; b <= last && b < bins; ++b) {
      double bin_start = static_cast<double>(b) * kSecondsPerHour;
      double overlap = std::min(w.end, bin_start + kSecondsPerHour) - std::max(w.start, bin_start);
      if (overlap > 0.0)
        hist.add(bin_start + kSecondsPerHour / 2.0, overlap / kSecondsPerHour);
    }
  }
  return hist;
}

double AvailabilityTrace::peak_to_trough_ratio() const {
  util::Histogram hist = hourly_availability();
  double peak = 0.0;
  double trough = std::numeric_limits<double>::infinity();
  bool seen = false;
  // Ignore the first and last 12h, which are edge-truncated.
  std::size_t skip = std::min<std::size_t>(12, hist.bin_count() / 4);
  for (std::size_t i = skip; i + skip < hist.bin_count(); ++i) {
    double c = hist.count(i);
    peak = std::max(peak, c);
    trough = std::min(trough, c);
    seen = true;
  }
  if (!seen || trough <= 0.0) return peak > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
  return peak / trough;
}

std::optional<AvailabilityWindow> TraceWindowStream::next() {
  if (cursor_ == trace_->windows().size()) return std::nullopt;
  return trace_->windows()[cursor_++];
}

std::optional<AvailabilityWindow> SessionWindowStream::next() {
  for (;;) {
    std::optional<Session> s = sessions_->next();
    if (!s) return std::nullopt;
    if (!criteria_->accepts(*s, *catalog_)) continue;
    AvailabilityWindow w{s->client_id, s->device_index, s->start, s->end};
    FLINT_CHECK_FINITE(w.start);
    FLINT_CHECK_FINITE(w.end);
    FLINT_CHECK_LT(w.start, w.end);
    // The stream contract: windows arrive non-decreasing in start. Holds by
    // construction for SessionStream inputs (they emit in session_order).
    FLINT_CHECK_GE(w.start, last_start_);
    last_start_ = w.start;
    return w;
  }
}

AvailabilityTrace build_availability(const SessionLog& log, const AvailabilityCriteria& criteria,
                                     const DeviceCatalog& catalog) {
  std::vector<AvailabilityWindow> windows;
  windows.reserve(log.sessions.size());
  for (const auto& s : log.sessions) {
    if (!criteria.accepts(s, catalog)) continue;
    windows.push_back({s.client_id, s.device_index, s.start, s.end});
  }
  return AvailabilityTrace(std::move(windows));
}

double criteria_pass_fraction(const SessionLog& log, const AvailabilityCriteria& criteria,
                              const DeviceCatalog& catalog) {
  double pass = 0.0, total = 0.0;
  for (const auto& s : log.sessions) {
    total += s.duration();
    if (criteria.accepts(s, catalog)) pass += s.duration();
  }
  FLINT_CHECK_MSG(total > 0.0, "empty session log");
  return pass / total;
}

}  // namespace flint::device
