// The parallel training runtime's core contract (DESIGN.md §11): every
// simulated quantity — final parameters, eval curve, system metrics — is
// bit-identical at any --threads value. Reductions fold updates in fixed
// task order, per-task RNG streams are derived from (seed, task id), and an
// update computes the same on whichever thread runs it, so the thread count
// can only change wall time.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"
#include "flint/fl/rpc_runtime.h"
#include "run_identical.h"
#include "test_helpers.h"

namespace flint::fl {
namespace {

struct Variant {
  const char* name;
  bool dp;
  bool compression;
};

constexpr Variant kVariants[] = {
    {"plain", false, false},
    {"dp", true, false},
    {"compression", false, true},
    {"dp+compression", true, true},
};

void apply_variant(RunInputs& inputs, const Variant& v) {
  if (v.dp) {
    privacy::DpConfig dp;
    dp.clip_norm = 1.0;
    dp.noise_multiplier = 0.4;
    inputs.dp = dp;
  }
  if (v.compression) {
    compress::CompressionConfig c;
    c.kind = compress::CompressionKind::kTopK;
    c.top_k_fraction = 0.25;
    inputs.compression = c;
  }
}

/// The FedBuff knobs the tests below vary.
struct BuffShape {
  std::size_t max_concurrency = 12;
  std::uint64_t max_staleness = 50;
};

// Exact equality everywhere (shared with the crash-resume tests): the
// contract is bit-identical, not "close".
using test::expect_identical_runs;

// Each run rebuilds model and trace from the same seeds so the only varying
// input is the thread count.
class Harness {
 public:
  Harness() {
    util::Rng rng(77);
    task_ = test::small_task(rng, /*clients=*/40);
  }

  RunResult run_avg(std::size_t threads, const Variant& v) {
    util::Rng model_rng(5);
    auto model = task_.make_model(model_rng);
    auto trace = test::always_available(40, 1e7);
    auto catalog = device::DeviceCatalog::standard();
    test::FixedBandwidthModel bw(10.0);
    SyncConfig cfg;
    test::wire_inputs(cfg.inputs, task_, *model, trace, catalog, bw);
    cfg.inputs.threads = threads;
    cfg.inputs.max_rounds = 4;
    cfg.inputs.eval_every_rounds = 2;
    cfg.inputs.seed = 9;
    cfg.cohort_size = 8;
    apply_variant(cfg.inputs, v);
    return run_fedavg(cfg);
  }

  /// A FedBuff run on `threads` in-process, or over a 2-executor loopback
  /// rpc fleet when `loopback` is set.
  RunResult run_buff(std::size_t threads, const Variant& v, BuffShape shape = {},
                     bool loopback = false) {
    util::Rng model_rng(5);
    auto model = task_.make_model(model_rng);
    auto trace = test::always_available(40, 1e7);
    auto catalog = device::DeviceCatalog::standard();
    test::FixedBandwidthModel bw(10.0);
    AsyncConfig cfg;
    test::wire_inputs(cfg.inputs, task_, *model, trace, catalog, bw);
    cfg.inputs.threads = threads;
    cfg.inputs.max_rounds = 5;
    cfg.inputs.eval_every_rounds = 2;
    cfg.inputs.seed = 9;
    cfg.buffer_size = 4;
    cfg.max_concurrency = shape.max_concurrency;
    cfg.max_staleness = shape.max_staleness;
    apply_variant(cfg.inputs, v);
    std::unique_ptr<RpcRuntime> rpc;
    if (loopback) {
      RpcRuntimeConfig rpc_cfg;
      rpc_cfg.kind = TransportKind::kLoopback;
      rpc_cfg.executors = 2;
      rpc = std::make_unique<RpcRuntime>(rpc_cfg, cfg.inputs);
      cfg.inputs.rpc_leader = rpc->leader();
    }
    return run_fedbuff(cfg);
  }

 private:
  data::FederatedTask task_;
};

TEST(ParallelDeterminism, FedAvgBitIdenticalAcrossThreadCounts) {
  Harness h;
  for (const Variant& v : kVariants) {
    RunResult serial = h.run_avg(1, v);
    EXPECT_FALSE(serial.final_parameters.empty());
    for (std::size_t threads : {2u, 8u})
      expect_identical_runs(serial, h.run_avg(threads, v), v.name);
  }
}

TEST(ParallelDeterminism, FedBuffBitIdenticalAcrossThreadCounts) {
  Harness h;
  for (const Variant& v : kVariants) {
    RunResult serial = h.run_buff(1, v);
    EXPECT_FALSE(serial.final_parameters.empty());
    EXPECT_GT(serial.rounds, 0u);
    for (std::size_t threads : {2u, 8u})
      expect_identical_runs(serial, h.run_buff(threads, v), v.name);
  }
}

TEST(ParallelDeterminism, FedBuffOneInFlightBitIdenticalAcrossThreadCounts) {
  // One task in flight: each completion only records its update, so a whole
  // buffer's tasks are queued one after another before aggregation folds
  // them. The fold joins them back to front, so the simulation thread trains
  // the unclaimed tail (help on join, on the off-pool replica) while the
  // workers race it for the head. Neither may change a result.
  Harness h;
  const BuffShape one_in_flight{.max_concurrency = 1};
  for (const Variant& v : kVariants) {
    RunResult serial = h.run_buff(1, v, one_in_flight);
    EXPECT_FALSE(serial.final_parameters.empty());
    EXPECT_GT(serial.rounds, 0u);
    for (std::size_t threads : {2u, 8u})
      expect_identical_runs(serial, h.run_buff(threads, v, one_in_flight), v.name);
  }
}

TEST(ParallelDeterminism, FedBuffStaleDiscardsBitIdenticalAcrossThreadCounts) {
  // Staleness bound 1 with 12 tasks in flight and a buffer of 4: many
  // completions are stale and join their update only to throw it away,
  // while the rest are recorded and folded with staleness weights at
  // aggregation. Neither path may change a result at any thread count or
  // over rpc.
  Harness h;
  const BuffShape stale{.max_concurrency = 12, .max_staleness = 1};
  for (const Variant& v : kVariants) {
    RunResult serial = h.run_buff(1, v, stale);
    EXPECT_FALSE(serial.final_parameters.empty());
    EXPECT_GT(serial.rounds, 0u);
    EXPECT_GT(serial.metrics.tasks_stale(), 0u) << v.name;
    EXPECT_GT(serial.metrics.tasks_succeeded(), 0u) << v.name;
    for (std::size_t threads : {2u, 8u})
      expect_identical_runs(serial, h.run_buff(threads, v, stale), v.name);
    expect_identical_runs(serial, h.run_buff(1, v, stale, /*loopback=*/true), v.name);
  }
}

TEST(ParallelDeterminism, SerialRunsAreRepeatable) {
  // Baseline sanity: the harness itself is deterministic at a fixed thread
  // count; without this, the cross-thread assertions prove nothing.
  Harness h;
  expect_identical_runs(h.run_buff(1, kVariants[0]), h.run_buff(1, kVariants[0]), "repeat");
}

}  // namespace
}  // namespace flint::fl
