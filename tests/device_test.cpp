#include <gtest/gtest.h>

#include <cmath>

#include "flint/device/availability.h"
#include "flint/device/device_catalog.h"
#include "flint/device/hardware_distribution.h"
#include "flint/device/session_generator.h"
#include "flint/util/stats.h"

namespace flint::device {
namespace {

// ------------------------------------------------------------ DeviceCatalog

TEST(DeviceCatalog, StandardHas27Devices) {
  auto catalog = DeviceCatalog::standard();
  EXPECT_EQ(catalog.size(), 27u);
  EXPECT_EQ(catalog.devices_with_os(Os::kIos).size(), 9u);
  EXPECT_EQ(catalog.devices_with_os(Os::kAndroid).size(), 18u);
}

TEST(DeviceCatalog, SpeedNormalizedToUnitMean) {
  auto catalog = DeviceCatalog::standard();
  double sum = 0.0;
  for (std::size_t i = 0; i < catalog.size(); ++i) sum += catalog.profile(i).speed_multiplier;
  EXPECT_NEAR(sum / static_cast<double>(catalog.size()), 1.0, 1e-9);
  // Heterogeneity spread comparable to Table 5's stdev/mean (~0.7).
  EXPECT_GT(catalog.stddev_speed(), 0.4);
  EXPECT_LT(catalog.stddev_speed(), 1.0);
}

TEST(DeviceCatalog, OsPassFractionMatchesTable1C) {
  auto catalog = DeviceCatalog::standard();
  // Popularity-weighted share of users whose OS release is >= min_release.
  auto pass_fraction = [&catalog](int min_release) {
    double pass = 0.0, total = 0.0;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      total += catalog.profile(i).popularity;
      if (catalog.profile(i).os_release >= min_release) pass += catalog.profile(i).popularity;
    }
    return pass / total;
  };
  // Criterion C: OS release >= Sept 2019 — paper reports 93%.
  EXPECT_NEAR(pass_fraction(201909), 0.93, 0.03);
  EXPECT_DOUBLE_EQ(pass_fraction(0), 1.0);
  EXPECT_DOUBLE_EQ(pass_fraction(999912), 0.0);
}

TEST(DeviceCatalog, SamplingFollowsPopularity) {
  auto catalog = DeviceCatalog::standard();
  util::Rng rng(3);
  std::vector<std::size_t> counts(catalog.size(), 0);
  for (int i = 0; i < 50000; ++i) ++counts[catalog.sample_device(rng)];
  // The most popular device (iPhone 11, weight 15) must be sampled far more
  // often than the least popular (weight 2).
  std::size_t iphone11 = 0, least = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.profile(i).name == "iPhone 11") iphone11 = counts[i];
    if (catalog.profile(i).name == "Moto G5") least = counts[i];
  }
  EXPECT_GT(iphone11, least * 4);
}

TEST(DeviceCatalog, RejectsEmptyAndInvalid) {
  EXPECT_THROW(DeviceCatalog({}), util::CheckError);
  DeviceProfile bad;
  bad.speed_multiplier = 0.0;
  EXPECT_THROW(DeviceCatalog({bad}), util::CheckError);
}

// ---------------------------------------------------- HardwareDistribution

TEST(HardwareDistribution, AndroidMoreDiverseThanIos) {
  auto catalog = DeviceCatalog::standard();
  util::Rng rng(4);
  auto ios = sampled_hardware_distribution(catalog, Os::kIos, 200000, rng);
  auto android = sampled_hardware_distribution(catalog, Os::kAndroid, 200000, rng);
  // Figure 1's headline: Android entropy (diversity) exceeds iOS.
  EXPECT_GT(android.entropy_bits, ios.entropy_bits);
  EXPECT_GT(ios.top3_share, android.top3_share);
  // Shares sum to 1 and are sorted descending.
  for (const auto* dist : {&ios, &android}) {
    double total = 0.0;
    for (std::size_t i = 0; i < dist->shares.size(); ++i) {
      total += dist->shares[i].share;
      if (i > 0) {
        EXPECT_LE(dist->shares[i].share, dist->shares[i - 1].share);
      }
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(HardwareDistribution, OtherShareShrinksWithLegend) {
  auto catalog = DeviceCatalog::standard();
  util::Rng rng(6);
  auto android = sampled_hardware_distribution(catalog, Os::kAndroid, 200000, rng);
  EXPECT_GT(android.other_share(3), android.other_share(10));
  EXPECT_DOUBLE_EQ(android.other_share(100), 0.0);
}

TEST(HardwareDistribution, SampledConvergesToExact) {
  auto catalog = DeviceCatalog::standard();
  util::Rng rng(5);
  // The exact distribution: popularity over the iOS devices, top share first.
  double total = 0.0;
  std::size_t top = 0;
  for (std::size_t i : catalog.devices_with_os(Os::kIos)) {
    total += catalog.profile(i).popularity;
    if (catalog.profile(i).popularity > catalog.profile(top).popularity ||
        catalog.profile(top).os != Os::kIos)
      top = i;
  }
  auto sampled = sampled_hardware_distribution(catalog, Os::kIos, 200000, rng);
  EXPECT_NEAR(sampled.shares[0].share, catalog.profile(top).popularity / total, 0.01);
  EXPECT_EQ(sampled.shares[0].name, catalog.profile(top).name);
}

// ---------------------------------------------------------------- Sessions

TEST(DiurnalWeight, EveningPeakOvernightTrough) {
  double peak = diurnal_weight(20.0, 0.02);
  double trough = diurnal_weight(4.0, 0.02);
  EXPECT_GT(peak / trough, 10.0);
  // Lunch bump exists but is smaller than the evening peak.
  EXPECT_GT(diurnal_weight(12.5, 0.02), diurnal_weight(9.0, 0.02));
  EXPECT_LT(diurnal_weight(12.5, 0.02), peak);
}

class SessionMarginalsTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(SessionMarginalsTest, WifiAndBatteryMatchConfig) {
  auto [wifi_p, battery_p] = GetParam();
  auto catalog = DeviceCatalog::standard();
  util::Rng rng(7);
  SessionGeneratorConfig cfg;
  cfg.clients = 800;
  cfg.days = 7;
  cfg.wifi_probability = wifi_p;
  cfg.high_battery_probability = battery_p;
  SessionLog log = generate_sessions(cfg, catalog, rng);
  ASSERT_GT(log.sessions.size(), 2000u);
  double wifi = 0.0, high_battery = 0.0;
  for (const auto& s : log.sessions) {
    if (s.wifi) wifi += 1.0;
    if (s.battery_pct >= 80.0) high_battery += 1.0;
    EXPECT_GT(s.end, s.start);
    EXPECT_LT(s.device_index, catalog.size());
  }
  double n = static_cast<double>(log.sessions.size());
  EXPECT_NEAR(wifi / n, wifi_p, 0.03);
  EXPECT_NEAR(high_battery / n, battery_p, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Criteria, SessionMarginalsTest,
                         ::testing::Values(std::pair{0.70, 0.34},  // Table 1
                                           std::pair{0.5, 0.5}, std::pair{0.9, 0.1}));

TEST(SessionGenerator, SortedByStartAndWeeklyPeriodicity) {
  auto catalog = DeviceCatalog::standard();
  util::Rng rng(9);
  SessionGeneratorConfig cfg;
  cfg.clients = 400;
  cfg.days = 14;
  SessionLog log = generate_sessions(cfg, catalog, rng);
  for (std::size_t i = 1; i < log.sessions.size(); ++i)
    EXPECT_GE(log.sessions[i].start, log.sessions[i - 1].start);
  EXPECT_EQ(log.client_device.size(), 400u);
  EXPECT_GT(log.total_duration(), 0.0);
}

TEST(SessionGenerator, WeekendActivityLower) {
  auto catalog = DeviceCatalog::standard();
  util::Rng rng(11);
  SessionGeneratorConfig cfg;
  cfg.clients = 600;
  cfg.days = 14;
  cfg.weekend_factor = 0.5;
  SessionLog log = generate_sessions(cfg, catalog, rng);
  double weekday = 0.0, weekend = 0.0;
  for (const auto& s : log.sessions) {
    int day = static_cast<int>(s.start / kSecondsPerDay) % 7;
    (day >= 5 ? weekend : weekday) += 1.0;
  }
  // 5 weekdays vs 2 weekend days at half rate: expect ~5x the sessions.
  EXPECT_GT(weekday / weekend, 3.0);
}

// ------------------------------------------------------------- Availability

TEST(AvailabilityCriteria, Table1Percentages) {
  auto catalog = DeviceCatalog::standard();
  util::Rng rng(13);
  SessionGeneratorConfig cfg;
  cfg.clients = 1500;
  cfg.days = 14;
  SessionLog log = generate_sessions(cfg, catalog, rng);

  AvailabilityCriteria wifi;
  wifi.require_wifi = true;
  AvailabilityCriteria battery;
  battery.min_battery_pct = 80.0;
  AvailabilityCriteria os;
  os.min_os_release = 201909;
  AvailabilityCriteria all;
  all.require_wifi = true;
  all.min_battery_pct = 80.0;
  all.min_os_release = 201909;

  EXPECT_NEAR(criteria_pass_fraction(log, wifi, catalog), 0.70, 0.04);
  EXPECT_NEAR(criteria_pass_fraction(log, battery, catalog), 0.34, 0.04);
  EXPECT_NEAR(criteria_pass_fraction(log, os, catalog), 0.93, 0.04);
  // A, B, C are independent in the generator: intersection ~22% (Table 1).
  EXPECT_NEAR(criteria_pass_fraction(log, all, catalog), 0.22, 0.04);
}

TEST(AvailabilityCriteria, DeviceAllowListAndMinSession) {
  auto catalog = DeviceCatalog::standard();
  Session s;
  s.device_index = 0;
  s.start = 0;
  s.end = 100;
  AvailabilityCriteria c;
  c.allowed_devices = {1, 2};
  EXPECT_FALSE(c.accepts(s, catalog));
  c.allowed_devices = {0};
  EXPECT_TRUE(c.accepts(s, catalog));
  c.min_session_s = 200.0;
  EXPECT_FALSE(c.accepts(s, catalog));
}

TEST(AvailabilityTrace, WindowQueries) {
  std::vector<AvailabilityWindow> windows = {
      {1, 0, 100.0, 200.0},
      {1, 0, 300.0, 400.0},
      {2, 0, 50.0, 500.0},
  };
  AvailabilityTrace trace(windows);
  EXPECT_EQ(trace.window_count(), 3u);
  EXPECT_EQ(trace.client_count(), 2u);
  EXPECT_DOUBLE_EQ(trace.horizon(), 500.0);
  // Sorted by start: client 2's window opens first.
  EXPECT_EQ(trace.windows().front().client_id, 2u);
  EXPECT_DOUBLE_EQ(trace.windows().back().start, 300.0);
}

TEST(AvailabilityTrace, Figure2FluctuationIsLarge) {
  auto catalog = DeviceCatalog::standard();
  util::Rng rng(17);
  SessionGeneratorConfig cfg;
  cfg.clients = 2500;
  cfg.days = 7;
  SessionLog log = generate_sessions(cfg, catalog, rng);
  AvailabilityCriteria strict;
  strict.require_wifi = true;
  strict.min_battery_pct = 80.0;
  strict.min_os_release = 201909;
  AvailabilityTrace trace = build_availability(log, strict, catalog);
  ASSERT_GT(trace.window_count(), 500u);
  // The paper reports ~14x peak-to-trough under strict criteria; accept a
  // broad band since the trough is noisy at this scale.
  double ratio = trace.peak_to_trough_ratio();
  EXPECT_GT(ratio, 5.0);
}

TEST(AvailabilityTrace, EmptyTraceBehaves) {
  AvailabilityTrace trace;
  EXPECT_EQ(trace.window_count(), 0u);
  EXPECT_EQ(trace.client_count(), 0u);
  EXPECT_DOUBLE_EQ(trace.horizon(), 0.0);
}

}  // namespace
}  // namespace flint::device
