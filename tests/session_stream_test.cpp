// Streaming session traces and the session-generator correctness properties
// they depend on (DESIGN.md §17): every session inside the horizon whatever
// the timezone sign, a total sort order, a golden fixed-seed trace hash, and
// streaming-vs-materialized bit-equivalence on both the in-memory and the
// spill-to-disk-and-merge paths.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "flint/device/availability.h"
#include "flint/device/session_stream.h"
#include "flint/sim/scheduler.h"
#include "flint/util/check.h"
#include "test_helpers.h"

namespace flint {
namespace {

namespace fs = std::filesystem;

device::SessionGeneratorConfig small_config() {
  device::SessionGeneratorConfig cfg;
  cfg.clients = 400;
  cfg.days = 3;
  return cfg;
}

void expect_session_eq(const device::Session& a, const device::Session& b) {
  EXPECT_EQ(a.client_id, b.client_id);
  EXPECT_EQ(a.device_index, b.device_index);
  EXPECT_EQ(a.start, b.start);  // bitwise: both sides computed the same way
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.wifi, b.wifi);
  EXPECT_EQ(a.battery_pct, b.battery_pct);
  EXPECT_EQ(a.foreground, b.foreground);
}

// ------------------------------------------------ in-horizon (wrap semantics)

TEST(SessionGenerator, AllSessionsInsideHorizonForEveryTimezoneSign) {
  // Negative offsets used to push early-morning sessions to negative start
  // times; positive ones could overhang past the horizon. Circular wrapping
  // keeps every piece inside [0, days*86400).
  auto catalog = device::DeviceCatalog::standard();
  for (double tz : {-8.0, -3.5, 0.0, 5.75, 11.0}) {
    device::SessionGeneratorConfig cfg = small_config();
    cfg.timezone_offsets_h = {tz};
    cfg.timezone_weights = {1.0};
    util::Rng rng(101);
    auto log = device::generate_sessions(cfg, catalog, rng);
    const double horizon = cfg.days * device::kSecondsPerDay;
    ASSERT_FALSE(log.sessions.empty()) << "tz " << tz;
    for (const auto& s : log.sessions) {
      EXPECT_GE(s.start, 0.0) << "tz " << tz;
      EXPECT_LT(s.start, horizon) << "tz " << tz;
      EXPECT_LE(s.end, horizon) << "tz " << tz;
      EXPECT_GE(s.duration(), 1.0) << "tz " << tz;
    }
  }
}

// ----------------------------------------------------- total-order sorting

TEST(SessionGenerator, SessionOrderBreaksTiesByClientThenEnd) {
  device::Session a, b;
  a.start = b.start = 100.0;
  a.client_id = 1;
  b.client_id = 2;
  EXPECT_TRUE(device::session_order(a, b));
  EXPECT_FALSE(device::session_order(b, a));
  b.client_id = 1;
  a.end = 150.0;
  b.end = 160.0;
  EXPECT_TRUE(device::session_order(a, b));
  EXPECT_FALSE(device::session_order(b, a));
}

TEST(SessionGenerator, GeneratedLogIsStrictlySessionOrdered) {
  // Strictly: adjacent sessions must never be equivalent under the order,
  // otherwise different std::sort implementations could emit different
  // permutations of the same log.
  auto catalog = device::DeviceCatalog::standard();
  util::Rng rng(7);
  auto log = device::generate_sessions(small_config(), catalog, rng);
  for (std::size_t i = 1; i < log.sessions.size(); ++i) {
    EXPECT_TRUE(device::session_order(log.sessions[i - 1], log.sessions[i]))
        << "tie or inversion at index " << i;
  }
}

// -------------------------------------------------------- golden trace hash

std::uint64_t fnv1a_session_hash(const std::vector<device::Session>& sessions) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& s : sessions) {
    std::uint64_t client = s.client_id;
    std::uint64_t device = s.device_index;
    mix(&client, 8);
    mix(&device, 8);
    mix(&s.start, 8);
    mix(&s.end, 8);
    mix(&s.battery_pct, 8);
    unsigned char flags = static_cast<unsigned char>((s.wifi ? 1 : 0) | (s.foreground ? 2 : 0));
    mix(&flags, 1);
  }
  return h;
}

TEST(SessionGenerator, FixedSeedTraceMatchesGoldenHash) {
  // Any change to the generator's numerics — wrap semantics, the portable
  // Poisson/lognormal draws, the sort order — changes this hash. Bump the
  // constant ONLY for an intentional trace-format change, and say so in the
  // commit message: it invalidates every checked-in bench baseline.
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 64;
  cfg.days = 2;
  util::Rng rng(4242);
  auto log = device::generate_sessions(cfg, catalog, rng);
  EXPECT_EQ(fnv1a_session_hash(log.sessions), 0x92099c9f71ddbdbdull);
}

// ------------------------------------- streaming == materialized, both paths

TEST(SessionStream, InMemoryStreamMatchesMaterializedLog) {
  auto catalog = device::DeviceCatalog::standard();
  device::SessionStreamConfig cfg;
  cfg.generator = small_config();
  ASSERT_LE(cfg.generator.clients, cfg.clients_per_chunk);  // in-memory path

  util::Rng rng_a(55);
  util::Rng rng_b(55);
  auto log = device::generate_sessions(cfg.generator, catalog, rng_a);
  auto stream = device::make_session_stream(cfg, catalog, rng_b);
  EXPECT_EQ(stream->clients(), cfg.generator.clients);
  EXPECT_EQ(stream->horizon(), cfg.generator.days * device::kSecondsPerDay);

  std::size_t i = 0;
  while (auto s = stream->next()) {
    ASSERT_LT(i, log.sessions.size());
    expect_session_eq(*s, log.sessions[i]);
    ++i;
  }
  EXPECT_EQ(i, log.sessions.size());
  EXPECT_FALSE(stream->next().has_value());  // stays exhausted
}

std::vector<device::Session> drain(device::SessionStream& stream) {
  std::vector<device::Session> out;
  while (auto s = stream.next()) out.push_back(*s);
  return out;
}

TEST(SessionStream, SpilledStreamMatchesMaterializedLog) {
  // Every population exceeds its chunk size, forcing spill + k-way merge.
  // Each chunk is built by the worker pool, one client sub-range per worker:
  // populations and chunk sizes that are not multiples of the worker count
  // leave some workers an empty sub-range, and one-client chunks leave all
  // but one empty.
  auto catalog = device::DeviceCatalog::standard();
  for (std::size_t clients : {13, 203, 400}) {
    device::SessionGeneratorConfig gen = small_config();
    gen.clients = clients;
    util::Rng rng_log(56);
    auto log = device::generate_sessions(gen, catalog, rng_log);
    for (std::size_t per_chunk : {1, 2, 7, 64}) {
      device::SessionStreamConfig cfg;
      cfg.generator = gen;
      cfg.clients_per_chunk = per_chunk;
      cfg.read_buffer_sessions = 128;  // tiny budget -> per-reader floor kicks in
      util::Rng rng(56);
      auto stream = device::make_session_stream(cfg, catalog, rng);
      auto streamed = drain(*stream);
      ASSERT_EQ(streamed.size(), log.sessions.size()) << clients << " clients, chunk " << per_chunk;
      for (std::size_t i = 0; i < streamed.size(); ++i)
        expect_session_eq(streamed[i], log.sessions[i]);
      EXPECT_FALSE(stream->next().has_value());
    }
  }
}

TEST(SessionStream, SpilledStreamMatchesGoldenHash) {
  // FixedSeedTraceMatchesGoldenHash's trace, built chunk by chunk on the
  // worker pool and merged back from disk.
  auto catalog = device::DeviceCatalog::standard();
  device::SessionStreamConfig cfg;
  cfg.generator.clients = 64;
  cfg.generator.days = 2;
  cfg.clients_per_chunk = 7;
  util::Rng rng(4242);
  auto stream = device::make_session_stream(cfg, catalog, rng);
  EXPECT_EQ(fnv1a_session_hash(drain(*stream)), 0x92099c9f71ddbdbdull);
}

TEST(SessionStream, SpillDirThatIsAFileThrowsCheckErrorAndLeavesNothing) {
  auto base = fs::temp_directory_path() / "flint_session_stream_file_test";
  fs::remove_all(base);
  fs::create_directories(base);
  const fs::path file = base / "not-a-directory";
  { std::ofstream(file) << "x"; }

  auto catalog = device::DeviceCatalog::standard();
  device::SessionStreamConfig cfg;
  cfg.generator = small_config();
  cfg.clients_per_chunk = 64;
  cfg.spill_dir = file.string();
  util::Rng rng(61);
  try {
    device::make_session_stream(cfg, catalog, rng);
    ADD_FAILURE() << "expected CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(file.string()), std::string::npos) << e.what();
  }
  // Only the file itself is left, untouched.
  EXPECT_TRUE(fs::is_regular_file(file));
  EXPECT_EQ(fs::file_size(file), 1u);
  EXPECT_EQ(std::distance(fs::directory_iterator(base), fs::directory_iterator()), 1);
  fs::remove_all(base);
}

TEST(SessionStream, SpillDirectoryIsRemovedOnDestruction) {
  auto base = fs::temp_directory_path() / "flint_session_stream_test";
  fs::remove_all(base);
  fs::create_directories(base);
  {
    auto catalog = device::DeviceCatalog::standard();
    device::SessionStreamConfig cfg;
    cfg.generator = small_config();
    cfg.clients_per_chunk = 64;
    cfg.spill_dir = base.string();
    util::Rng rng(57);
    auto stream = device::make_session_stream(cfg, catalog, rng);
    ASSERT_TRUE(stream->next().has_value());
    EXPECT_FALSE(fs::is_empty(base));  // chunks exist while streaming
  }
  EXPECT_TRUE(fs::is_empty(base));
  fs::remove_all(base);
}

// ------------------------------------------- streamed availability windows

TEST(SessionWindowStream, MatchesBuildAvailabilityOrder) {
  auto catalog = device::DeviceCatalog::standard();
  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  criteria.min_battery_pct = 50.0;
  criteria.min_session_s = 120.0;

  util::Rng rng_a(58);
  util::Rng rng_b(58);
  auto log = device::generate_sessions(small_config(), catalog, rng_a);
  auto trace = device::build_availability(log, criteria, catalog);

  device::SessionStreamConfig cfg;
  cfg.generator = small_config();
  auto sessions = device::make_session_stream(cfg, catalog, rng_b);
  device::SessionWindowStream streamed(*sessions, criteria, catalog);

  std::size_t i = 0;
  while (auto w = streamed.next()) {
    ASSERT_LT(i, trace.windows().size());
    const auto& expect = trace.windows()[i];
    EXPECT_EQ(w->client_id, expect.client_id);
    EXPECT_EQ(w->device_index, expect.device_index);
    EXPECT_EQ(w->start, expect.start);
    EXPECT_EQ(w->end, expect.end);
    ++i;
  }
  EXPECT_EQ(i, trace.windows().size());
}

TEST(WindowOrder, BreaksTiesByClientThenEnd) {
  device::AvailabilityWindow a, b;
  a.start = b.start = 10.0;
  a.client_id = 3;
  b.client_id = 4;
  EXPECT_TRUE(device::window_order(a, b));
  b.client_id = 3;
  a.end = 20.0;
  b.end = 30.0;
  EXPECT_TRUE(device::window_order(a, b));
  EXPECT_FALSE(device::window_order(b, a));
}

// ----------------------------------- scheduler over a stream == over a trace

TEST(ArrivalScheduler, StreamBackedSchedulerMatchesTraceBacked) {
  auto catalog = device::DeviceCatalog::standard();
  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;

  util::Rng rng_a(59);
  util::Rng rng_b(59);
  auto log = device::generate_sessions(small_config(), catalog, rng_a);
  auto trace = device::build_availability(log, criteria, catalog);

  device::SessionStreamConfig cfg;
  cfg.generator = small_config();
  cfg.clients_per_chunk = 64;  // spilled, to cover the interesting path
  auto sessions = device::make_session_stream(cfg, catalog, rng_b);
  device::SessionWindowStream windows(*sessions, criteria, catalog);

  sim::ArrivalScheduler from_trace(trace);
  sim::ArrivalScheduler from_stream(windows);
  sim::VirtualTime t = 0.0;
  while (true) {
    auto a = from_trace.next(t);
    auto b = from_stream.next(t);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    EXPECT_EQ(a->client_id, b->client_id);
    EXPECT_EQ(a->device_index, b->device_index);
    EXPECT_EQ(a->time, b->time);
    EXPECT_EQ(a->window_end, b->window_end);
    t = a->time;
  }
}

}  // namespace
}  // namespace flint
