// Synthetic app-session log generator (substitute for LinkedIn's anonymized
// production session data — see DESIGN.md). Calibrated to the paper's
// published aggregates:
//   * strong diurnal shape with a deep overnight trough and geographic
//     (timezone) mixing, producing the ~14x weekly peak/trough fluctuation
//     of Figure 2 once participation criteria are applied;
//   * tail-heavy session durations ("app usage duration is tail-heavy");
//   * attribute marginals of Table 1: P(WiFi)=0.70, P(battery>=80%)=0.34.
#pragma once

#include <cstdint>
#include <vector>

#include "flint/device/device_catalog.h"
#include "flint/device/session.h"
#include "flint/util/rng.h"
#include "flint/util/stats.h"

namespace flint::device {

/// Generator parameters.
struct SessionGeneratorConfig {
  std::size_t clients = 2000;
  int days = 14;                      ///< paper queries two weeks of sessions
  double sessions_per_day = 3.0;      ///< per-client weekday mean
  double weekend_factor = 0.7;        ///< weekend activity multiplier
  double mean_session_s = 240.0;      ///< lognormal session duration mean
  double session_cv = 2.0;            ///< duration stdev/mean (tail-heavy)
  double wifi_probability = 0.70;     ///< Table 1 criterion A marginal
  double high_battery_probability = 0.34;  ///< Table 1 criterion B marginal
  /// Overnight activity floor relative to the evening peak. Smaller values
  /// deepen the Figure 2 trough.
  double overnight_floor = 0.02;
  /// Geographic timezone mixture (hour offsets and weights). Defaults to a
  /// three-region mix concentrated in one region, which keeps the trough low.
  std::vector<double> timezone_offsets_h = {0.0, 6.0, 10.0};
  std::vector<double> timezone_weights = {0.75, 0.15, 0.10};
  /// Probability a session is split by a long background gap (§4.1: long
  /// gaps split a session into two).
  double split_probability = 0.15;
};

/// A generated log: sessions sorted by start time, plus each client's device.
struct SessionLog {
  std::vector<Session> sessions;
  std::vector<std::size_t> client_device;  ///< client id -> catalog index

  double total_duration() const;
};

/// Stream id for per-client session-trace substreams (util::derive_stream).
/// Every client's sessions come from derive_stream(trace_seed, this, client),
/// so a client's trace is independent of how many other clients were
/// generated before it — the property that lets the streaming generator
/// (session_stream.h) produce bit-identical traces chunk by chunk.
inline constexpr std::uint64_t kSessionTraceStreamId = 0x5E551014ull;

/// Canonical session ordering: by start, then client id, then end. The two
/// tie-break keys make the order a total one for generated traces (a client
/// never emits two sessions with identical start AND end), so sorts agree
/// across standard libraries and the k-way streaming merge can reproduce the
/// materialized order exactly. Inline: the sorts and merges of trace
/// generation call it tens of millions of times.
inline bool session_order(const Session& a, const Session& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.client_id != b.client_id) return a.client_id < b.client_id;
  return a.end < b.end;
}

/// Per-client session sampler. All randomness for client `c` comes from
/// derive_stream(trace_seed, kSessionTraceStreamId, c), so clients can be
/// generated in any order, in any process, and yield identical sessions.
/// generate_sessions() and the streaming generator are both built on this.
class SessionTraceSampler {
 public:
  SessionTraceSampler(const SessionGeneratorConfig& config, const DeviceCatalog& catalog,
                      std::uint64_t trace_seed);

  /// Append client `client_id`'s trace to `out` in generation order (not
  /// sorted; every session within [0, days*86400)) and return its device
  /// index. Callers gather many clients and sort them together by
  /// session_order, a total order, so the order of the gathering does not
  /// matter.
  std::size_t append_client(std::uint64_t client_id, std::vector<Session>& out) const;

  /// An upper bound on the mean sessions per client: the mean daily count
  /// summed over the horizon, every session counted as split. Sizes the
  /// buffers of callers that gather many clients; never affects a draw.
  double expected_sessions_per_client() const;

  const SessionGeneratorConfig& config() const { return config_; }
  /// Trace horizon in seconds: days * 86400.
  double horizon() const;

 private:
  SessionGeneratorConfig config_;
  const DeviceCatalog* catalog_;
  std::uint64_t trace_seed_;
  util::CategoricalTable timezones_;  ///< draws an index into timezone_offsets_h
  util::CategoricalTable slots_;      ///< 48 half-hour slots of diurnal_weight
  util::LognormalParams duration_params_;
};

/// Generate a session log. Deterministic given the rng state.
SessionLog generate_sessions(const SessionGeneratorConfig& config, const DeviceCatalog& catalog,
                             util::Rng& rng);

/// The diurnal activity weight at local time-of-day `hour` in [0, 24): two
/// bumps (lunch, evening peak) over an overnight floor. Exposed for tests.
double diurnal_weight(double hour, double overnight_floor);

}  // namespace flint::device
