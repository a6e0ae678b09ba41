#include "flint/device/device_catalog.h"

#include <cmath>

#include "flint/util/check.h"
#include "flint/util/stats.h"

namespace flint::device {

namespace {

std::vector<DeviceProfile> standard_profiles() {
  // 27 devices: 9 iOS (concentrated shares) + 18 Android (long tail), mirroring
  // Figure 1's observation that Android hardware is far more diverse. Speed
  // multipliers are pre-normalization (the constructor rescales the fleet's
  // unweighted mean to 1.0). memory_affinity > 0 marks devices relatively
  // stronger on memory-bound (embedding) workloads.
  return {
      // name, os, speed, cpu, memMB, mem_affinity, popularity, os_release
      {"iPhone 14 Pro", Os::kIos, 0.35, 0.55, 6144, 0.3, 9, 202209},
      {"iPhone 13", Os::kIos, 0.45, 0.60, 4096, 0.2, 14, 202109},
      {"iPhone 12", Os::kIos, 0.52, 0.65, 4096, 0.2, 13, 202010},
      {"iPhone 11", Os::kIos, 0.65, 0.75, 4096, 0.1, 15, 201909},
      {"iPhone XR", Os::kIos, 0.82, 0.85, 3072, -0.1, 8, 202009},
      {"iPhone X", Os::kIos, 0.95, 0.90, 3072, -0.2, 5, 202009},
      {"iPhone 8", Os::kIos, 1.15, 1.00, 2048, -0.4, 4, 202009},
      {"iPhone SE 2020", Os::kIos, 0.70, 0.80, 3072, 0.0, 6, 202004},
      {"iPad 9th gen", Os::kIos, 0.60, 0.70, 3072, 0.4, 3, 202109},
      {"Galaxy S23", Os::kAndroid, 0.40, 0.50, 8192, 0.4, 6, 202302},
      {"Galaxy S21", Os::kAndroid, 0.55, 0.62, 8192, 0.3, 7, 202101},
      {"Pixel 7", Os::kAndroid, 0.45, 0.55, 8192, 0.3, 4, 202210},
      {"Pixel 5", Os::kAndroid, 0.75, 0.78, 8192, 0.2, 3, 202010},
      {"Galaxy A52", Os::kAndroid, 1.20, 1.10, 6144, 0.1, 8, 202103},
      {"Galaxy A13", Os::kAndroid, 2.00, 1.50, 4096, -0.3, 7, 202203},
      {"Redmi Note 11", Os::kAndroid, 1.60, 1.30, 4096, -0.2, 7, 202201},
      {"Redmi 9A", Os::kAndroid, 2.80, 1.90, 2048, -0.7, 5, 202006},
      {"Galaxy J7 2017", Os::kAndroid, 3.20, 2.10, 3072, -0.9, 3, 201708},
      {"Moto G5", Os::kAndroid, 3.00, 2.00, 2048, -0.8, 2, 201803},
      {"Galaxy S9", Os::kAndroid, 1.40, 1.20, 4096, 0.0, 4, 202001},
      {"OnePlus 9", Os::kAndroid, 0.50, 0.60, 8192, 0.3, 3, 202103},
      {"Oppo A54", Os::kAndroid, 1.80, 1.40, 4096, -0.3, 5, 202104},
      {"Vivo Y21", Os::kAndroid, 2.20, 1.60, 4096, -0.5, 4, 202108},
      {"Galaxy M31", Os::kAndroid, 1.50, 1.25, 6144, 0.1, 4, 202002},
      {"Huawei P30 lite", Os::kAndroid, 1.70, 1.35, 4096, -0.2, 4, 201904},
      {"Tecno Spark 8", Os::kAndroid, 2.60, 1.80, 3072, -0.6, 3, 202110},
      {"Galaxy Tab A8", Os::kAndroid, 1.30, 1.15, 4096, 0.5, 2, 202112},
  };
}

std::vector<double> popularity_weights(const std::vector<DeviceProfile>& profiles) {
  std::vector<double> weights;
  weights.reserve(profiles.size());
  for (const auto& p : profiles) weights.push_back(p.popularity);
  return weights;
}

}  // namespace

DeviceCatalog DeviceCatalog::standard() { return DeviceCatalog(standard_profiles()); }

DeviceCatalog::DeviceCatalog(std::vector<DeviceProfile> profiles)
    : profiles_(std::move(profiles)), popularity_(popularity_weights(profiles_)) {
  FLINT_CHECK(!profiles_.empty());
  // Normalize the unweighted mean speed to 1.0 so that zoo base times are
  // fleet means by construction.
  double mean = 0.0;
  for (const auto& p : profiles_) {
    FLINT_CHECK(p.speed_multiplier > 0.0 && p.cpu_multiplier > 0.0);
    FLINT_CHECK(p.popularity > 0.0);
    mean += p.speed_multiplier;
  }
  mean /= static_cast<double>(profiles_.size());
  for (auto& p : profiles_) p.speed_multiplier /= mean;
}

const DeviceProfile& DeviceCatalog::profile(std::size_t i) const {
  FLINT_CHECK(i < profiles_.size());
  return profiles_[i];
}

std::size_t DeviceCatalog::sample_device(util::Rng& rng) const {
  return popularity_.sample(rng);
}

std::vector<std::size_t> DeviceCatalog::devices_with_os(Os os) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < profiles_.size(); ++i)
    if (profiles_[i].os == os) out.push_back(i);
  return out;
}

double DeviceCatalog::stddev_speed() const {
  util::RunningStats s;
  for (const auto& p : profiles_) s.add(p.speed_multiplier);
  return s.stddev();
}

}  // namespace flint::device
