// Compression accuracy gate: proves the quantized wire formats (DESIGN.md
// §16) do not meaningfully hurt model quality. Runs the same FedBuff job
// three times — raw float32 updates, int8 symmetric quantization, and top-25%
// sparsification — and compares the final held-out eval
// loss of each compressed run against the f32 reference.
//
// Unlike the other benches this one is also a correctness gate (registered
// with ctest): it exits nonzero when int8 drifts more than 1% relative from
// f32, or top-k more than 5%. Tolerances are loose on purpose — compression
// is lossy by design; what must not happen is quality falling off a cliff.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_helpers.h"
#include "flint/ml/loss.h"
#include "flint/util/table.h"

namespace {

using namespace flint;

/// Mean BCE loss of `model` over the held-out test set, chunked so peak
/// batch memory stays small. Chunk boundaries are fixed, so the result is
/// deterministic for given parameters.
double eval_loss(ml::Model& model, const std::vector<ml::Example>& test,
                 std::size_t dense_dim) {
  constexpr std::size_t kChunk = 256;
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t start = 0; start < test.size(); start += kChunk) {
    std::size_t end = std::min(start + kChunk, test.size());
    ml::Batch batch =
        ml::Batch::from_examples(std::span(test).subspan(start, end - start), dense_dim);
    ml::Tensor logits = model.forward(batch);
    total += ml::bce_with_logits(logits, batch.labels).loss * static_cast<double>(end - start);
    n += end - start;
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  core::RunSpec spec(
      "compression_accuracy: ads proxy, 200 clients, fedbuff 40 rounds, seed 271");
  spec.with_threads();
  bench::BenchArtifact artifact(spec, argc, argv, "compression_accuracy");
  bench::print_header("Compression accuracy: final eval loss vs raw float32",
                      "Same FedBuff job under each wire format; int8 must stay "
                      "within 1% relative eval loss of f32, top-k within 5%");

  util::Rng rng(271);
  data::SyntheticTaskConfig task_cfg;
  task_cfg.domain = data::Domain::kAds;
  task_cfg.clients = 200;
  task_cfg.mean_records = 30;
  task_cfg.std_records = 40;
  task_cfg.max_records = 400;
  task_cfg.dense_dim = 12;
  task_cfg.test_examples = 2000;
  data::FederatedTask task = data::make_synthetic_task(task_cfg, rng);
  device::DeviceCatalog catalog = device::DeviceCatalog::standard();
  net::PufferLikeBandwidthModel bandwidth;
  std::vector<device::AvailabilityWindow> windows;
  for (std::size_t c = 0; c < task_cfg.clients; ++c)
    windows.push_back({c, catalog.sample_device(rng), 0.0, 1e10});
  auto model = task.make_model(rng);

  struct Scheme {
    const char* name;
    const char* key;
    compress::CompressionConfig config;
  };
  const Scheme schemes[] = {
      {"raw float32", "f32", {}},
      {"int8 quantized", "int8", {.kind = compress::CompressionKind::kInt8}},
      {"top-25% sparsified", "topk",
       {.kind = compress::CompressionKind::kTopK, .top_k_fraction = 0.25}},
  };

  util::Table table({"SCHEME", "EVAL LOSS", "REL DIFF VS F32", "AUPR"});
  double f32_loss = 0.0;
  bool ok = true;
  for (const Scheme& scheme : schemes) {
    device::AvailabilityTrace trace(windows);
    fl::AsyncConfig cfg;
    cfg.inputs.threads = spec.threads;
    cfg.inputs.dataset = &task.train;
    cfg.inputs.dense_dim = task.batch_dense_dim();
    cfg.inputs.model_template = model.get();
    cfg.inputs.trace = &trace;
    cfg.inputs.catalog = &catalog;
    cfg.inputs.bandwidth = &bandwidth;
    cfg.inputs.test = &task.test;
    cfg.inputs.domain = task.config.domain;
    cfg.inputs.local.loss = task.loss_kind();
    cfg.inputs.local.clip_norm = 1.0;
    cfg.inputs.duration.base_time_per_example_s = 61.81 / 5000.0;
    cfg.inputs.max_rounds = 40;
    cfg.inputs.reparticipation_gap_s = 0.0;
    cfg.inputs.seed = 4242;
    cfg.inputs.compression = scheme.config;
    cfg.buffer_size = 10;
    cfg.max_concurrency = 25;
    fl::RunResult result = fl::run_fedbuff(cfg);

    auto eval_model = model->clone();
    eval_model->set_flat_parameters(result.final_parameters);
    double loss = eval_loss(*eval_model, task.test, task.batch_dense_dim());

    std::string rel_text = "reference";
    if (std::string(scheme.key) == "f32") {
      f32_loss = loss;
    } else {
      double rel = std::abs(loss - f32_loss) / f32_loss;
      double limit = std::string(scheme.key) == "int8" ? 0.01 : 0.05;
      rel_text = util::Table::pct(rel, 2) + (rel <= limit ? "" : "  EXCEEDS LIMIT");
      if (rel > limit) ok = false;
      artifact.add_scalar(std::string("compression.rel_loss_diff.") + scheme.key, rel);
    }
    artifact.add_scalar(std::string("compression.eval_loss.") + scheme.key, loss);
    artifact.add_scalar(std::string("compression.final_metric.") + scheme.key,
                        result.final_metric);
    table.add_row({scheme.name, util::Table::num(loss, 6), rel_text,
                   util::Table::num(result.final_metric, 4)});
  }
  std::cout << table.render();

  if (!ok) {
    std::cerr << "\nbench_compression_accuracy: FAIL — a compressed run drifted "
                 "past its eval-loss tolerance (int8 1%, top-k 5%)\n";
    return 1;
  }
  std::cout << "\nbench_compression_accuracy: OK — compressed runs within tolerance\n";
  return 0;
}
