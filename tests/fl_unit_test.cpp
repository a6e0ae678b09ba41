#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "flint/data/synthetic_tasks.h"
#include "flint/fl/aggregator.h"
#include "flint/fl/client_selection.h"
#include "flint/fl/lr_schedule.h"
#include "flint/fl/task_duration.h"
#include "flint/fl/trainer.h"
#include "flint/ml/kernels/kernels.h"

namespace flint::fl {
namespace {

// -------------------------------------------------------------- LrSchedule

TEST(LrSchedule, Constant) {
  auto s = LrSchedule::constant(0.1);
  EXPECT_DOUBLE_EQ(s.at(0), 0.1);
  EXPECT_DOUBLE_EQ(s.at(1000), 0.1);
}

TEST(LrSchedule, ExponentialDecayContinuous) {
  auto s = LrSchedule::exponential_decay(1.0, 0.5, 10);
  EXPECT_DOUBLE_EQ(s.at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(10), 0.5);
  EXPECT_NEAR(s.at(5), std::pow(0.5, 0.5), 1e-12);
}

TEST(LrSchedule, ExponentialDecayStaircase) {
  auto s = LrSchedule::exponential_decay(1.0, 0.5, 10, /*staircase=*/true);
  EXPECT_DOUBLE_EQ(s.at(9), 1.0);   // first step not yet reached
  EXPECT_DOUBLE_EQ(s.at(10), 0.5);
  EXPECT_DOUBLE_EQ(s.at(19), 0.5);
  EXPECT_DOUBLE_EQ(s.at(20), 0.25);
}

TEST(LrSchedule, MinLrFloor) {
  auto s = LrSchedule::exponential_decay(1.0, 0.1, 1, false, 0.05);
  EXPECT_DOUBLE_EQ(s.at(100), 0.05);
}

TEST(LrSchedule, InverseSqrtWarmupAndDecay) {
  auto s = LrSchedule::inverse_sqrt(1.0, 10);
  EXPECT_LT(s.at(0), 0.2);                  // warming up
  EXPECT_NEAR(s.at(10), 1.0, 0.01);         // fully warm
  EXPECT_NEAR(s.at(40), 0.5, 0.01);         // 1/sqrt(4)
}

TEST(LrSchedule, RejectsBadParams) {
  EXPECT_THROW(LrSchedule::constant(0.0), util::CheckError);
  EXPECT_THROW(LrSchedule::exponential_decay(0.1, 1.5, 10), util::CheckError);
  EXPECT_THROW(LrSchedule::exponential_decay(0.1, 0.5, 0), util::CheckError);
  EXPECT_THROW(LrSchedule::inverse_sqrt(0.1, 0), util::CheckError);
}

// -------------------------------------------------------------- Aggregation

TEST(StalenessWeight, MatchesFedBuffFormula) {
  EXPECT_DOUBLE_EQ(staleness_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(staleness_weight(3), 0.5);
  EXPECT_GT(staleness_weight(1), staleness_weight(2));
}

TEST(UpdateAccumulator, WeightedMean) {
  UpdateAccumulator acc(2);
  EXPECT_TRUE(acc.empty());
  std::vector<float> a = {1.0f, 0.0f};
  std::vector<float> b = {3.0f, 2.0f};
  acc.add(a, 1.0);
  acc.add(b, 3.0);
  EXPECT_EQ(acc.count(), 2u);
  auto mean = acc.weighted_mean();
  EXPECT_NEAR(mean[0], (1.0 + 9.0) / 4.0, 1e-6);
  EXPECT_NEAR(mean[1], 6.0 / 4.0, 1e-6);
  acc.reset();
  EXPECT_TRUE(acc.empty());
  EXPECT_THROW(acc.weighted_mean(), util::CheckError);
}

TEST(UpdateAccumulator, DimMismatchAndBadWeight) {
  UpdateAccumulator acc(2);
  std::vector<float> wrong = {1.0f};
  EXPECT_THROW(acc.add(wrong, 1.0), util::CheckError);
  std::vector<float> ok = {1.0f, 2.0f};
  EXPECT_THROW(acc.add(ok, 0.0), util::CheckError);
}

TEST(ApplyServerUpdate, ScalesByServerLr) {
  std::vector<float> params = {1.0f, 1.0f};
  std::vector<float> delta = {0.5f, -0.5f};
  apply_server_update(params, delta, 2.0);
  EXPECT_FLOAT_EQ(params[0], 2.0f);
  EXPECT_FLOAT_EQ(params[1], 0.0f);
}

// ------------------------------------------------------------ TaskDuration

TEST(TaskDuration, FormulaComponents) {
  // Fixed bandwidth and no jitter: duration = t*E*D + 2M/N exactly.
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(8.0);  // 1 MB/s
  TaskDurationConfig cfg;
  cfg.base_time_per_example_s = 0.01;
  cfg.local_epochs = 2;
  cfg.update_bytes = 500000;  // 0.5 MB -> 2M/N = 1 s
  cfg.jitter_sigma = 1e-9;
  cfg.memory_intensity = 0.0;
  TaskDurationModel model(cfg, catalog, bw);
  util::Rng rng(1);
  // Pick a device and compute its expected multiplier.
  std::size_t dev = 0;
  double speed = device::effective_speed(catalog.profile(dev), 0.0);
  auto s = model.sample(dev, 100, rng);
  EXPECT_NEAR(s.compute_s, 0.01 * 2 * 100 * speed, 0.01 * 2 * 100 * speed * 0.01);
  EXPECT_NEAR(s.comm_s, 1.0, 1e-9);
  EXPECT_NEAR(s.total_s(), s.compute_s + s.comm_s, 1e-12);
}

TEST(TaskDuration, SlowerDevicesTakeLonger) {
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(100.0);
  TaskDurationConfig cfg;
  cfg.base_time_per_example_s = 0.01;
  cfg.jitter_sigma = 1e-9;
  TaskDurationModel model(cfg, catalog, bw);
  util::Rng rng(2);
  // Find fastest and slowest devices by multiplier.
  std::size_t fast = 0, slow = 0;
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    if (catalog.profile(i).speed_multiplier < catalog.profile(fast).speed_multiplier) fast = i;
    if (catalog.profile(i).speed_multiplier > catalog.profile(slow).speed_multiplier) slow = i;
  }
  EXPECT_LT(model.sample(fast, 100, rng).compute_s, model.sample(slow, 100, rng).compute_s);
}

TEST(TaskDuration, FromSpecUsesCalibration) {
  const auto& spec = ml::model_spec('B');
  auto cfg = TaskDurationModel::from_spec(spec, 3);
  EXPECT_NEAR(cfg.base_time_per_example_s, spec.calibration.base_time_per_5k_s / 5000.0, 1e-12);
  EXPECT_EQ(cfg.local_epochs, 3);
  EXPECT_NEAR(static_cast<double>(cfg.update_bytes), spec.calibration.network_mb * 1e6 / 2.0, 1.0);
  EXPECT_LT(cfg.memory_intensity, 0.0);  // B is compute-bound
}

TEST(TaskDuration, LowBandwidthDominatedByComm) {
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel slow_net(0.5);
  TaskDurationConfig cfg;
  cfg.base_time_per_example_s = 1e-5;
  cfg.update_bytes = 5'000'000;
  TaskDurationModel model(cfg, catalog, slow_net);
  util::Rng rng(3);
  auto s = model.sample(0, 10, rng);
  EXPECT_GT(s.comm_s, s.compute_s * 10);
}

TEST(TaskDuration, RejectsZeroExamples) {
  auto catalog = device::DeviceCatalog::standard();
  net::FixedBandwidthModel bw(10.0);
  TaskDurationModel model(TaskDurationConfig{}, catalog, bw);
  util::Rng rng(4);
  EXPECT_THROW(model.sample(0, 0, rng), util::CheckError);
}

// --------------------------------------------------------- Client selection

device::AvailabilityTrace five_client_trace() {
  std::vector<device::AvailabilityWindow> windows;
  for (std::uint64_t c = 0; c < 5; ++c)
    windows.push_back({c, 0, static_cast<double>(c) * 10.0, 1000.0});
  return device::AvailabilityTrace(std::move(windows));
}

TEST(SelectCohort, TakesEarliestArrivals) {
  auto trace = five_client_trace();
  sim::ArrivalScheduler sched(trace);
  auto cohort = select_cohort(sched, 0.0, 3, nullptr, 1000.0);
  ASSERT_EQ(cohort.size(), 3u);
  EXPECT_EQ(cohort[0].client_id, 0u);
  EXPECT_EQ(cohort[2].client_id, 2u);
}

TEST(SelectCohort, ExcludesCoolingClients) {
  auto trace = five_client_trace();
  sim::ArrivalScheduler sched(trace);
  // Client 1 is excluded until t=500.
  auto cohort = select_cohort(
      sched, 0.0, 3,
      [](std::uint64_t c) -> std::optional<sim::VirtualTime> {
        if (c == 1) return 500.0;
        return std::nullopt;
      },
      1000.0);
  ASSERT_EQ(cohort.size(), 3u);
  EXPECT_EQ(cohort[0].client_id, 0u);
  EXPECT_EQ(cohort[1].client_id, 2u);
  EXPECT_EQ(cohort[2].client_id, 3u);
  // After the exclusion lapses, client 1 is re-offered from its requeue.
  auto later = select_cohort(sched, 500.0, 1, nullptr, 1000.0);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].client_id, 1u);
}

TEST(SelectCohort, LapsedExclusionIsEligible) {
  auto trace = five_client_trace();
  sim::ArrivalScheduler sched(trace);
  // Exclusion time in the past: client stays eligible.
  auto cohort = select_cohort(
      sched, 100.0, 5,
      [](std::uint64_t) -> std::optional<sim::VirtualTime> { return 50.0; }, 1000.0);
  EXPECT_EQ(cohort.size(), 5u);
}

TEST(SelectCohort, MaxWaitLimitsLateArrivals) {
  auto trace = five_client_trace();
  sim::ArrivalScheduler sched(trace);
  // Clients arrive at 0, 10, 20, 30, 40; with max_wait 15 only 0, 10 qualify.
  auto cohort = select_cohort(sched, 0.0, 5, nullptr, 15.0);
  EXPECT_EQ(cohort.size(), 2u);
}

TEST(SelectCohort, ReturnsEmptyWhenExhausted) {
  auto trace = five_client_trace();
  sim::ArrivalScheduler sched(trace);
  select_cohort(sched, 0.0, 5, nullptr, 1000.0);
  auto cohort = select_cohort(sched, 0.0, 5, nullptr, 1000.0);
  EXPECT_TRUE(cohort.empty());
}

TEST(OvercommittedSize, CeilBehaviour) {
  EXPECT_EQ(overcommitted_size(10, 1.3), 13u);
  EXPECT_EQ(overcommitted_size(10, 1.0), 10u);
  EXPECT_EQ(overcommitted_size(3, 1.5), 5u);
  EXPECT_THROW(overcommitted_size(0, 1.3), util::CheckError);
  EXPECT_THROW(overcommitted_size(5, 0.5), util::CheckError);
}

// ------------------------------------------------------------ LocalTrainer

/// FNV-1a over the bit patterns of the floats.
std::uint64_t fnv1a_float_bits(const std::vector<float>& v, std::uint64_t h) {
  for (float f : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Hash of the local-SGD deltas of four ads clients (the table3 model,
/// 16 -> 32 -> 16 -> 1, batch 16, 3 epochs) on the active kernel path.
std::uint64_t ads_delta_hash() {
  data::SyntheticTaskConfig cfg;
  cfg.domain = data::Domain::kAds;
  cfg.clients = 4;
  cfg.mean_records = 200;
  cfg.std_records = 150;
  cfg.dense_dim = 16;
  cfg.test_examples = 16;
  util::Rng rng(17);
  data::FederatedTask task = data::make_synthetic_task(cfg, rng);
  std::unique_ptr<ml::Model> model = task.make_model(rng);
  const std::vector<float> params = model->get_flat_parameters();
  LocalTrainer trainer(std::move(model), task.batch_dense_dim());
  LocalTrainConfig local;
  local.epochs = 3;
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& client : task.train.clients())
    h = fnv1a_float_bits(trainer.train(client.examples, params, local).delta, h);
  return h;
}

class LocalTrainerGolden : public ::testing::Test {
 protected:
  void SetUp() override { saved_spec_ = ml::kernels::requested_spec(); }
  void TearDown() override { ml::kernels::set_path(saved_spec_); }
  std::string saved_spec_;
};

TEST_F(LocalTrainerGolden, FixedSeedDeltaMatchesGoldenHashPerKernelPath) {
  // Pins local SGD's numerics on each kernel path CI runs (x86: scalar and
  // AVX2). A change to the layers, the model or the kernels that moves any
  // delta bit changes the hash. Bump a constant ONLY for an intentional
  // numerics change, and say so in the commit message.
  namespace k = ml::kernels;
  struct Golden {
    k::KernelPath path;
    std::uint64_t hash;
  };
  const Golden goldens[] = {{k::KernelPath::kScalar, 0xf29f53e19b240968ull},
                            {k::KernelPath::kAvx2, 0xf29f53e19b240968ull}};
  for (const Golden& g : goldens) {
    if (!k::path_supported(g.path)) continue;
    k::set_path(k::path_name(g.path));
    EXPECT_EQ(ads_delta_hash(), g.hash) << "on the " << k::path_name(g.path) << " path";
  }
}

}  // namespace
}  // namespace flint::fl
