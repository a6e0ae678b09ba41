// Shared builders for FL integration tests: small tasks, traces, and run
// configs that finish in milliseconds.
#pragma once

#include <algorithm>
#include <vector>

#include "flint/data/synthetic_tasks.h"
#include "flint/device/availability.h"
#include "flint/fl/run_common.h"
#include "flint/net/bandwidth_model.h"

namespace flint::test {

/// Deterministic bandwidth: every client gets the same link.
class FixedBandwidthModel : public net::BandwidthModel {
 public:
  explicit FixedBandwidthModel(double mbps) : mbps_(mbps) {}
  double sample_mbps(util::Rng&) const override { return mbps_; }

 private:
  double mbps_;
};

/// A [rows, cols] tensor holding `values` in row-major order.
inline ml::Tensor tensor(std::size_t rows, std::size_t cols, const std::vector<float>& values) {
  ml::Tensor t(rows, cols);
  FLINT_CHECK_EQ(values.size(), t.size());
  std::copy(values.begin(), values.end(), t.flat().begin());
  return t;
}

/// Concatenation of all parameter gradients, in parameters() order.
inline std::vector<float> flat_gradients(ml::Model& model) {
  std::vector<float> out;
  for (ml::Parameter* p : model.parameters()) {
    auto g = p->grad.flat();
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

/// A tiny ads-like task (fast to train, converges visibly).
inline data::FederatedTask small_task(util::Rng& rng, std::size_t clients = 60,
                                      data::Domain domain = data::Domain::kAds) {
  data::SyntheticTaskConfig cfg;
  cfg.domain = domain;
  cfg.clients = clients;
  cfg.mean_records = 20.0;
  cfg.std_records = 15.0;
  cfg.max_records = 200;
  cfg.dense_dim = 8;
  cfg.vocab = 60;
  cfg.heterogeneity = 0.3;
  cfg.test_examples = 600;
  return data::make_synthetic_task(cfg, rng);
}

/// An always-on availability trace: every client in [0, horizon) at device 0.
inline device::AvailabilityTrace always_available(std::size_t clients, double horizon_s,
                                                  std::size_t device_index = 0) {
  std::vector<device::AvailabilityWindow> windows;
  windows.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c)
    windows.push_back({c, device_index, 0.0, horizon_s});
  return device::AvailabilityTrace(std::move(windows));
}

/// A trace of per-client windows with staggered starts.
inline device::AvailabilityTrace staggered_trace(std::size_t clients, double window_s,
                                                 double stagger_s) {
  std::vector<device::AvailabilityWindow> windows;
  for (std::size_t c = 0; c < clients; ++c) {
    double start = static_cast<double>(c) * stagger_s;
    windows.push_back({c, c % 27, start, start + window_s});
  }
  return device::AvailabilityTrace(std::move(windows));
}

/// Wire the common inputs of a run config (non-owning: keep the referenced
/// objects alive for the run).
inline void wire_inputs(fl::RunInputs& inputs, const data::FederatedTask& task, ml::Model& model,
                        const device::AvailabilityTrace& trace,
                        const device::DeviceCatalog& catalog,
                        const net::BandwidthModel& bandwidth) {
  inputs.dataset = &task.train;
  inputs.dense_dim = task.batch_dense_dim();
  inputs.model_template = &model;
  inputs.trace = &trace;
  inputs.catalog = &catalog;
  inputs.bandwidth = &bandwidth;
  inputs.test = &task.test;
  inputs.domain = task.config.domain;
  inputs.local.loss = task.loss_kind();
  inputs.duration.base_time_per_example_s = 0.01;
  inputs.duration.update_bytes = 50'000;
  inputs.reparticipation_gap_s = 0.0;  // tiny tests reuse clients freely
}

}  // namespace flint::test
