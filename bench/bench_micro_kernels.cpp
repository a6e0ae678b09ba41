// Micro-kernel benchmarks (google-benchmark): throughput of the hot paths
// under FLINT's simulations — tensor products, embedding lookups, feature
// hashing, loss computation, local SGD steps, cache ops, and the event queue.
//
// Besides the google-benchmark section, main() runs a hand-timed sweep over
// the flint::ml::kernels table that emits per-kernel GB/s and GFLOP/s artifact
// leaves plus `speedup_vs_scalar` (active SIMD path vs. the honest-scalar
// reference), which is what the CI smoke-bench diff gates the ≥2× win on.
// The sweep covers the ads MLP's own tile shapes with post-ReLU-like inputs
// too, and one whole LocalTrainer pass (`kernels.local_sgd_mlp`).
// A second hand-timed sweep measures util::Rng against std::mt19937_64:
// `rng.derive_speedup_vs_std` (a derived stream plus 4 draws) and
// `rng.draw_ratio_vs_std` (per-draw cost of a long stream, the median of 7
// interleaved timings per side), both gated by tools/check_kernel_speedup.py
// on a build without -march=native.
// A third sweep times util::crc32 on the three sizes FLINT checksums most —
// fedavg_fleet's result frame (4,455 bytes) and lease frame (22,939 bytes),
// and a FedBuff checkpoint (97,276 bytes) — as `crc32.<bytes>B.gbps`,
// and on the lease frame against a bytewise table reference kept here as
// `crc32.speedup_vs_bytewise`, gated >= 3x by tools/check_kernel_speedup.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <random>

#include "bench_helpers.h"
#include "flint/data/proxy_generator.h"
#include "flint/feature/feature_cache.h"
#include "flint/feature/feature_hashing.h"
#include "flint/fl/aggregator.h"
#include "flint/fl/trainer.h"
#include "flint/ml/kernels/kernels.h"
#include "flint/ml/loss.h"
#include "flint/ml/model.h"
#include "flint/sim/event_queue.h"
#include "flint/util/check.h"
#include "flint/util/crc32.h"
#include "flint/util/rng.h"

namespace {

using namespace flint;

void BM_TensorMatmul(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  ml::Tensor a(n, n), b(n, n);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    ml::Tensor c = a.matmul(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(64)->Arg(128);

void BM_EmbeddingBagForward(benchmark::State& state) {
  util::Rng rng(2);
  ml::EmbeddingBagLayer bag(10'000, 64);
  bag.init(rng);
  std::vector<std::vector<std::int32_t>> tokens(32);
  for (auto& t : tokens) {
    t.resize(16);
    for (auto& id : t) id = static_cast<std::int32_t>(rng.uniform_int(0, 9999));
  }
  for (auto _ : state) {
    ml::Tensor out = bag.forward(tokens);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 32 * 16);
}
BENCHMARK(BM_EmbeddingBagForward);

void BM_FeatureHashing(benchmark::State& state) {
  feature::FeatureHasher hasher(4096);
  std::vector<std::string> tokens;
  for (int i = 0; i < 256; ++i) tokens.push_back("feature:token:" + std::to_string(i));
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& t : tokens) acc += hasher.bucket(t);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_FeatureHashing);

void BM_BceLoss(benchmark::State& state) {
  util::Rng rng(3);
  ml::Tensor logits(512, 1);
  std::vector<float> labels(512);
  for (float& v : logits.flat()) v = static_cast<float>(rng.normal());
  for (float& v : labels) v = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  for (auto _ : state) {
    auto r = ml::bce_with_logits(logits, labels);
    benchmark::DoNotOptimize(r.loss);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_BceLoss);

void BM_LocalTrainerStep(benchmark::State& state) {
  util::Rng rng(4);
  ml::FeedForwardConfig mcfg;
  mcfg.dense_dim = 16;
  mcfg.hidden = {32, 16};
  auto model = std::make_unique<ml::FeedForwardModel>(mcfg);
  model->init(rng);
  std::vector<float> params = model->get_flat_parameters();
  fl::LocalTrainer trainer(std::move(model), 16);
  std::vector<ml::Example> data(64);
  for (auto& e : data) {
    e.dense.resize(16);
    for (float& v : e.dense) v = static_cast<float>(rng.normal());
    e.label = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  fl::LocalTrainConfig cfg;
  for (auto _ : state) {
    auto r = trainer.train(data, params, cfg);
    benchmark::DoNotOptimize(r.delta);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LocalTrainerStep);

void BM_FeatureCache(benchmark::State& state) {
  feature::FeatureCache cache(1 << 20);
  util::Rng rng(5);
  std::vector<float> value(16, 1.0f);
  for (int i = 0; i < 1000; ++i) cache.put("key" + std::to_string(i), value);
  for (auto _ : state) {
    auto v = cache.get("key" + std::to_string(rng.uniform_int(0, 1499)));  // ~2/3 hits
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureCache);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t ended = 0;
    for (std::uint64_t i = 0; i < 1000; ++i)
      q.schedule(static_cast<double>((i * 7919) % 1000), sim::EventKind::kTaskEnd, i);
    while (std::optional<sim::Event> ev = q.pop()) ended += ev->task_id;
    benchmark::DoNotOptimize(ended);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

void BM_WeightedAccumulate(benchmark::State& state) {
  // The aggregation hot loop: every client update funnels through
  // UpdateAccumulator::add and each server step through weighted_mean +
  // apply_server_update. Dim matches real model parameter counts.
  auto dim = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<std::vector<float>> deltas(16, std::vector<float>(dim));
  for (auto& d : deltas)
    for (float& v : d) v = static_cast<float>(rng.normal());
  std::vector<float> params(dim, 0.0f);
  fl::UpdateAccumulator acc(dim);
  for (auto _ : state) {
    acc.reset();
    for (std::size_t k = 0; k < deltas.size(); ++k)
      acc.add(deltas[k], 1.0 + static_cast<double>(k));
    std::vector<float> mean = acc.weighted_mean();
    fl::apply_server_update(params, mean, 0.1);
    benchmark::DoNotOptimize(params.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(deltas.size() * dim));
}
BENCHMARK(BM_WeightedAccumulate)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_QuantityProfile(benchmark::State& state) {
  util::Rng rng(6);
  data::QuantityProfileConfig cfg;
  cfg.population = 100'000;
  cfg.mean_records = 99;
  cfg.std_records = 667;
  cfg.max_records = 39'731;
  for (auto _ : state) {
    auto counts = data::sample_quantity_profile(cfg, rng);
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_QuantityProfile);

// ---------------------------------------------------------------------------
// Hand-timed flint::ml::kernels sweep: per-kernel GB/s, GFLOP/s, and
// speedup_vs_scalar artifact leaves. Working sets are L1-resident (16 KB
// vectors, 64x64 matrices) so the numbers expose compute throughput — the
// quantity SIMD improves — rather than DRAM bandwidth.

/// Best-of-R time for `reps` calls of fn (minimum filters scheduler noise).
template <typename F>
double time_best_s(F&& fn, int reps, int rounds = 7) {
  double best = 1e30;
  for (int r = 0; r < rounds; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) fn();
    double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (s < best) best = s;
  }
  return best / reps;
}

/// Median wall seconds of one call of `a` and of `b` over `rounds` timings
/// each, interleaved so both sides see the same machine drift.
template <typename A, typename B>
std::pair<double, double> time_median_pair_s(A&& a, B&& b, int rounds) {
  auto once = [](auto& fn) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  std::vector<double> ta, tb;
  for (int r = 0; r < rounds; ++r) {
    ta.push_back(once(a));
    tb.push_back(once(b));
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  return {median(ta), median(tb)};
}

struct KernelCase {
  const char* name;
  double bytes;  ///< bytes touched per call (reads + writes)
  double flops;  ///< float ops per call
  int reps;      ///< calls per timing round
  void (*run)(const ml::kernels::KernelTable&);
};

constexpr std::size_t kVec = 4096;            // 16 KB of floats: L1-resident
constexpr std::size_t kMat = 64;              // 64x64 matmul operands
constexpr std::size_t kRows = 16, kDim = 64;  // gather/scatter shape
constexpr std::size_t kTile = 32;             // model-shaped tiles fit 32x32

// Shared scratch for the kernel cases. Static so the case table can use
// plain function pointers; (re)initialized by run_kernel_sweep.
struct Scratch {
  std::vector<float> x, y, vel, noise;
  std::vector<double> dsum;
  std::vector<float> a, b, out;
  std::vector<float> table, rows;
  std::vector<std::int32_t> tokens;
  std::vector<float> tile_a, tile_b, tile_out;  ///< model-shaped tiles, a half zeros
};
Scratch& scratch() {
  static Scratch s;
  return s;
}

void reset_scratch() {
  util::Rng rng(11);
  Scratch& s = scratch();
  auto fill = [&rng](std::vector<float>& v, std::size_t n) {
    v.resize(n);
    for (float& f : v) f = static_cast<float>(rng.normal());
  };
  fill(s.x, kVec);
  fill(s.y, kVec);
  fill(s.vel, kVec);
  fill(s.noise, kVec);
  s.dsum.assign(kVec, 0.0);
  fill(s.a, kMat * kMat);
  fill(s.b, kMat * kMat);
  s.out.assign(kMat * kMat, 0.0f);
  fill(s.table, 1024 * kDim);
  fill(s.rows, kRows * kDim);
  s.tokens.resize(kRows);
  for (auto& t : s.tokens) t = static_cast<std::int32_t>(rng.uniform_int(0, 1023));
  // Post-ReLU activations: about half exact zeros at random positions.
  fill(s.tile_a, kTile * kTile);
  for (float& f : s.tile_a)
    if (rng.bernoulli(0.5)) f = 0.0f;
  fill(s.tile_b, kTile * kTile);
  s.tile_out.assign(kTile * kTile, 0.0f);
}

enum class Tile { kMatmul, kTransposedMatmul, kMatmulTransposed };

/// A tile case: the kernel on [m,k] x [k,n]-shaped operands (a half zeros).
template <Tile T, std::size_t M, std::size_t K, std::size_t N>
void run_tile(const ml::kernels::KernelTable& k) {
  auto& s = scratch();
  if constexpr (T == Tile::kMatmul) {
    std::fill_n(s.tile_out.begin(), M * N, 0.0f);
    k.matmul(s.tile_a.data(), s.tile_b.data(), s.tile_out.data(), M, K, N);
  } else if constexpr (T == Tile::kTransposedMatmul) {
    std::fill_n(s.tile_out.begin(), M * N, 0.0f);
    k.transposed_matmul(s.tile_a.data(), s.tile_b.data(), s.tile_out.data(), K, M, N);
  } else {
    k.matmul_transposed(s.tile_a.data(), s.tile_b.data(), s.tile_out.data(), M, K, N);
  }
}

template <Tile T, std::size_t M, std::size_t K, std::size_t N>
constexpr KernelCase tile_case(const char* name) {
  return {name, 4.0 * (M * K + K * N + 2 * M * N), 2.0 * M * K * N, 20000, run_tile<T, M, K, N>};
}

const KernelCase kKernelCases[] = {
    {"add", 3.0 * 4 * kVec, 1.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.add(scratch().y.data(), scratch().x.data(), kVec);
     }},
    {"axpy", 3.0 * 4 * kVec, 2.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.axpy(scratch().y.data(), scratch().x.data(), 0.25f, kVec);
     }},
    {"scale_add", 3.0 * 4 * kVec, 2.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.scale_add(scratch().y.data(), 0.999f, scratch().noise.data(), kVec);
     }},
    {"sgd_step", 3.0 * 4 * kVec, 3.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.sgd_step(scratch().y.data(), scratch().x.data(), 1e-4f, 1e-5f, kVec);
     }},
    {"sgd_momentum_step", 5.0 * 4 * kVec, 5.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.sgd_momentum_step(scratch().y.data(), scratch().x.data(), scratch().vel.data(),
                           1e-4f, 0.9f, 1e-5f, kVec);
     }},
    {"server_momentum_step", 5.0 * 4 * kVec, 4.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.server_momentum_step(scratch().y.data(), scratch().vel.data(), scratch().x.data(),
                              0.9f, 0.1f, kVec);
     }},
    {"weighted_accum", (8.0 + 8.0 + 4.0) * kVec, 2.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.weighted_accum(scratch().dsum.data(), scratch().x.data(), 1.5, kVec);
     }},
    {"mean_from_sums", (8.0 + 4.0) * kVec, 1.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       k.mean_from_sums(scratch().y.data(), scratch().dsum.data(), 0.125, kVec);
     }},
    {"max_abs", 4.0 * kVec, 1.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       benchmark::DoNotOptimize(k.max_abs(scratch().x.data(), kVec));
     }},
    {"sum_squares", 4.0 * kVec, 2.0 * kVec, 2000,
     [](const ml::kernels::KernelTable& k) {
       benchmark::DoNotOptimize(k.sum_squares(scratch().x.data(), kVec, 0.0));
     }},
    {"matmul", 3.0 * 4 * kMat * kMat, 2.0 * kMat * kMat * kMat, 50,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       std::fill(s.out.begin(), s.out.end(), 0.0f);
       k.matmul(s.a.data(), s.b.data(), s.out.data(), kMat, kMat, kMat);
     }},
    {"transposed_matmul", 3.0 * 4 * kMat * kMat, 2.0 * kMat * kMat * kMat, 50,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       std::fill(s.out.begin(), s.out.end(), 0.0f);
       k.transposed_matmul(s.a.data(), s.b.data(), s.out.data(), kMat, kMat, kMat);
     }},
    {"matmul_transposed", 3.0 * 4 * kMat * kMat, 2.0 * kMat * kMat * kMat, 50,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       k.matmul_transposed(s.a.data(), s.b.data(), s.out.data(), kMat, kMat, kMat);
     }},
    {"gather_mean_rows", 2.0 * 4 * kRows * kDim, 1.0 * kRows * kDim, 2000,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       std::fill(s.rows.begin(), s.rows.end(), 0.0f);
       for (std::size_t r = 0; r < kRows; ++r)
         k.gather_mean_rows(s.table.data(), kDim, s.tokens.data(), kRows, 1024,
                            s.rows.data() + r * kDim);
     }},
    {"scatter_add_rows", 3.0 * 4 * kRows * kDim, 2.0 * kRows * kDim, 2000,
     [](const ml::kernels::KernelTable& k) {
       auto& s = scratch();
       for (std::size_t r = 0; r < kRows; ++r)
         k.scatter_add_rows(s.table.data(), kDim, s.tokens.data(), kRows, 1024,
                            s.rows.data() + r * kDim, 0.0625f);
     }},
    // The ads MLP's dominant tiles at batch 16 (16 -> 32 -> 16 -> 1):
    // forward of layers 1 and 2, layer 2's dW, and layer 2's dX.
    tile_case<Tile::kMatmul, 16, 16, 32>("matmul_16x16x32"),
    tile_case<Tile::kMatmul, 16, 32, 16>("matmul_16x32x16"),
    tile_case<Tile::kTransposedMatmul, 32, 16, 16>("transposed_matmul_k16_32x16"),
    tile_case<Tile::kMatmulTransposed, 16, 16, 32>("matmul_transposed_16x16x32"),
};

// The head's tiles (n == 1 forward, k == 1 dX): reported as ns only. A
// single output column leaves SIMD nothing to win, so no speedup floor.
const KernelCase kNsOnlyCases[] = {
    tile_case<Tile::kMatmul, 16, 16, 1>("matmul_16x16x1"),
    tile_case<Tile::kMatmulTransposed, 16, 1, 16>("matmul_transposed_16x1x16"),
};

void run_kernel_sweep(flint::bench::BenchArtifact& artifact) {
  using ml::kernels::KernelPath;
  const KernelPath active = ml::kernels::active_path();
  const auto& active_table = ml::kernels::table_for(active);
  const auto& scalar_table = ml::kernels::table_for(KernelPath::kScalar);
  std::cout << "\nml::kernels sweep (active path: " << ml::kernels::path_name(active)
            << ", reference: scalar)\n";
  // Lets tools/check_kernel_speedup.py skip the >=2x gate on runs pinned to
  // --kernels=scalar, where every speedup is ~1.0 by construction.
  artifact.add_scalar("kernels.simd_active", active == KernelPath::kScalar ? 0.0 : 1.0);
  std::printf("  %-22s %10s %10s %12s\n", "kernel", "GB/s", "GFLOP/s", "vs scalar");
  for (const KernelCase& c : kKernelCases) {
    reset_scratch();
    c.run(scalar_table);  // warm both code and data
    double scalar_s = time_best_s([&] { c.run(scalar_table); }, c.reps);
    reset_scratch();
    c.run(active_table);
    double active_s = time_best_s([&] { c.run(active_table); }, c.reps);
    double gbps = c.bytes / active_s / 1e9;
    double gflops = c.flops / active_s / 1e9;
    double speedup = scalar_s / active_s;
    std::printf("  %-22s %10.2f %10.2f %11.2fx\n", c.name, gbps, gflops, speedup);
    std::string prefix = std::string("kernels.") + c.name;
    artifact.add_scalar(prefix + ".gbps", gbps);
    artifact.add_scalar(prefix + ".gflops", gflops);
    artifact.add_scalar(prefix + ".speedup_vs_scalar", speedup);
  }
  for (const KernelCase& c : kNsOnlyCases) {
    reset_scratch();
    c.run(active_table);
    double ns = time_best_s([&] { c.run(active_table); }, c.reps) * 1e9;
    std::printf("  %-22s %10.1f ns\n", c.name, ns);
    artifact.add_scalar(std::string("kernels.") + c.name + ".ns", ns);
  }
}

// One LocalTrainer pass (the ads MLP, 16 -> 32 -> 16 -> 1, batch 16, 3
// epochs over 256 examples) on the active path against the scalar path:
// local SGD end to end, where the layers' overhead counts as well as the
// kernels'. set_path switches the process-wide table, which is safe here
// because the sweep runs single-threaded after google-benchmark is done.
void run_local_sgd_sweep(flint::bench::BenchArtifact& artifact) {
  util::Rng rng(12);
  ml::FeedForwardConfig mcfg;
  mcfg.dense_dim = 16;
  mcfg.hidden = {32, 16};
  auto model = std::make_unique<ml::FeedForwardModel>(mcfg);
  model->init(rng);
  const std::vector<float> params = model->get_flat_parameters();
  fl::LocalTrainer trainer(std::move(model), 16);
  std::vector<ml::Example> data(256);
  for (auto& e : data) {
    e.dense.resize(16);
    for (float& v : e.dense) v = static_cast<float>(rng.normal());
    e.label = rng.bernoulli(0.3) ? 1.0f : 0.0f;
  }
  fl::LocalTrainConfig cfg;
  cfg.epochs = 3;
  auto pass = [&] { benchmark::DoNotOptimize(trainer.train(data, params, cfg).delta); };
  const std::string spec = ml::kernels::requested_spec();
  pass();
  double active_s = time_best_s(pass, 20);
  ml::kernels::set_path("scalar");
  pass();
  double scalar_s = time_best_s(pass, 20);
  ml::kernels::set_path(spec);
  double examples = static_cast<double>(data.size()) * cfg.epochs;
  double speedup = scalar_s / active_s;
  std::printf("  %-22s %10.3f us/example %8.2fx\n", "local_sgd_mlp", active_s * 1e6 / examples,
              speedup);
  artifact.add_scalar("kernels.local_sgd_mlp.us_per_example", active_s * 1e6 / examples);
  artifact.add_scalar("kernels.local_sgd_mlp.speedup_vs_scalar", speedup);
}

// ---------------------------------------------------------------------------
// Hand-timed RNG sweep: the cost of a derived stream that draws a few values
// (what every simulated task and trace client pays) and the per-draw cost of
// a long stream, each against std::mt19937_64 in the same binary.

constexpr int kDerivedStreams = 1000;  // streams per timed call
constexpr int kDrawsPerStream = 4;
constexpr int kLongStreamDraws = 10'000'000;
constexpr int kLongStreamRounds = 7;  // timings per side, median reported

/// The seed derive_stream(seed, stream) keys its engine with (substream 0).
std::uint64_t derived_key(std::uint64_t seed, std::uint64_t stream) {
  return util::splitmix64(util::splitmix64(util::splitmix64(seed) ^ stream));
}

void run_rng_sweep(flint::bench::BenchArtifact& artifact) {
  std::uint64_t next_stream = 0;
  double flint_s = time_best_s(
      [&] {
        std::uint64_t acc = 0;
        for (int i = 0; i < kDerivedStreams; ++i) {
          util::Rng rng = util::derive_stream(7, next_stream++);
          for (int d = 0; d < kDrawsPerStream; ++d) acc += rng.next_u64();
        }
        benchmark::DoNotOptimize(acc);
      },
      20);
  double std_s = time_best_s(
      [&] {
        std::uint64_t acc = 0;
        for (int i = 0; i < kDerivedStreams; ++i) {
          // flint-lint: allow(rng): the reference engine the derivation floor is measured against
          std::mt19937_64 engine(derived_key(7, next_stream++));
          for (int d = 0; d < kDrawsPerStream; ++d) acc += engine();
        }
        benchmark::DoNotOptimize(acc);
      },
      20);
  double derive_ns = flint_s / kDerivedStreams * 1e9;
  double std_derive_ns = std_s / kDerivedStreams * 1e9;

  // Median of kLongStreamRounds interleaved timings per side: one slow
  // round on a shared machine must not decide the ratio.
  auto [flint_draw_s, std_draw_s] = time_median_pair_s(
      [] {
        util::Rng rng(1);
        std::uint64_t acc = 0;
        for (int i = 0; i < kLongStreamDraws; ++i) acc += rng.next_u64();
        benchmark::DoNotOptimize(acc);
      },
      [] {
        std::mt19937_64 engine(1);  // flint-lint: allow(rng): long-stream reference engine
        std::uint64_t acc = 0;
        for (int i = 0; i < kLongStreamDraws; ++i) acc += engine();
        benchmark::DoNotOptimize(acc);
      },
      kLongStreamRounds);

  double derive_speedup = std_derive_ns / derive_ns;
  double draw_ratio = std_draw_s / flint_draw_s;
  std::printf("\nutil::Rng sweep (reference: std::mt19937_64)\n");
  std::printf("  derive_stream + %d draws %8.1f ns   std %8.1f ns   %6.2fx\n", kDrawsPerStream,
              derive_ns, std_derive_ns, derive_speedup);
  std::printf("  long stream, per draw    %8.2f ns   std %8.2f ns   ratio %.2f\n",
              flint_draw_s / kLongStreamDraws * 1e9, std_draw_s / kLongStreamDraws * 1e9,
              draw_ratio);
  artifact.add_scalar("rng.derive_ns", derive_ns);
  artifact.add_scalar("rng.derive_speedup_vs_std", derive_speedup);
  artifact.add_scalar("rng.draw_ratio_vs_std", draw_ratio);
}

// ---------------------------------------------------------------------------
// Hand-timed CRC-32 sweep: util::crc32 against the one-byte-per-step table
// loop it replaced, which stays here only as the reference.

constexpr std::array<std::uint32_t, 256> make_bytewise_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kBytewiseCrc32Table = make_bytewise_crc32_table();

std::uint32_t bytewise_crc32(const unsigned char* bytes, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = kBytewiseCrc32Table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

constexpr std::size_t kCrcResultFrame = 4455;
constexpr std::size_t kCrcLeaseFrame = 22939;
constexpr std::size_t kCrcCheckpoint = 97276;

void run_crc32_sweep(flint::bench::BenchArtifact& artifact) {
  util::Rng rng(13);
  std::vector<unsigned char> bytes(kCrcCheckpoint);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.next_u64());
  std::printf("\nutil::crc32 sweep (reference: bytewise table)\n");
  for (std::size_t size : {kCrcResultFrame, kCrcLeaseFrame, kCrcCheckpoint}) {
    const int reps = static_cast<int>(20'000'000 / size);
    double s = time_best_s([&] { benchmark::DoNotOptimize(util::crc32(bytes.data(), size)); },
                           reps);
    double gbps = static_cast<double>(size) / s / 1e9;
    std::printf("  %7zu bytes %10.2f us %8.2f GB/s\n", size, s * 1e6, gbps);
    artifact.add_scalar("crc32." + std::to_string(size) + "B.gbps", gbps);
  }
  FLINT_CHECK_EQ(util::crc32(bytes.data(), kCrcLeaseFrame),
                 bytewise_crc32(bytes.data(), kCrcLeaseFrame));
  auto [fast_s, bytewise_s] = time_median_pair_s(
      [&] {
        for (int i = 0; i < 100; ++i)
          benchmark::DoNotOptimize(util::crc32(bytes.data(), kCrcLeaseFrame));
      },
      [&] {
        for (int i = 0; i < 100; ++i)
          benchmark::DoNotOptimize(bytewise_crc32(bytes.data(), kCrcLeaseFrame));
      },
      kLongStreamRounds);
  double speedup = bytewise_s / fast_s;
  std::printf("  lease frame vs bytewise %8.2f us   bytewise %8.2f us   %6.2fx\n",
              fast_s / 100 * 1e6, bytewise_s / 100 * 1e6, speedup);
  artifact.add_scalar("crc32.speedup_vs_bytewise", speedup);
}

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the binary also emits a run artifact: the
// run spec claims --artifact-out and --kernels and hands every other argument
// to google-benchmark's flag parser (which rejects flags it does not know).
int main(int argc, char** argv) {
  flint::core::RunSpec spec("micro_kernels: google-benchmark hot-path kernels");
  std::vector<char*> args;
  spec.pass_unknown_to(&args);
  flint::bench::BenchArtifact artifact(spec, argc, argv, "micro_kernels");
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_kernel_sweep(artifact);
  run_local_sgd_sweep(artifact);
  run_rng_sweep(artifact);
  run_crc32_sweep(artifact);
  return 0;
}
