#include "flint/core/run_artifact.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"
#include "test_helpers.h"

namespace flint::core {
namespace {

namespace fs = std::filesystem;

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

/// A synthetic run with a few tasks, rounds, and eval points — enough to
/// exercise every artifact section without simulating anything.
fl::RunResult synthetic_run(std::uint64_t rounds = 5) {
  fl::RunResult run;
  sim::TaskResult tr;
  tr.spec.client_id = 7;
  tr.spec.update_bytes = 1000;
  tr.spent_compute_s = 10.0;
  tr.outcome = sim::TaskOutcome::kSucceeded;
  for (int i = 0; i < 4; ++i) {
    run.metrics.on_task_started();
    run.metrics.on_task_finished(tr);
  }
  for (std::uint64_t r = 0; r < rounds; ++r) {
    double start = static_cast<double>(r) * 100.0;
    run.metrics.on_round({r + 1, start, start + 90.0, 4, 0.0});
    run.eval_curve.push_back({start + 90.0, r + 1, 0.5 + 0.01 * static_cast<double>(r), 0.3});
  }
  run.metrics.on_checkpoint({rounds, static_cast<double>(rounds) * 100.0});
  run.rounds = rounds;
  run.final_metric = run.eval_curve.back().metric;
  run.virtual_duration_s = static_cast<double>(rounds) * 100.0;
  return run;
}

// -------------------------------------------------------------- fingerprint

TEST(Fingerprint, Fnv1aKnownValues) {
  // FNV-1a offset basis: hash of the empty string.
  EXPECT_EQ(fingerprint64(""), 1469598103934665603ull);
  EXPECT_EQ(fingerprint64("abc"), fingerprint64("abc"));
  EXPECT_NE(fingerprint64("abc"), fingerprint64("abd"));
  EXPECT_NE(fingerprint64("config a"), fingerprint64("config b"));
}

// ------------------------------------------------------------ JSON rendering

TEST(RunArtifact, RendersAllSections) {
  fl::RunResult run = synthetic_run();
  RunArtifactInputs in;
  in.run = &run;
  in.name = "unit";
  in.metric_name = "AUPR";
  in.config_text = "unit test config";
  in.scalars = {{"alpha", 1.5}, {"beta", -2.0}};
  ResourceForecast forecast = forecast_resources(run, ForecastConfig{});
  in.forecast = &forecast;

  std::string json = render_run_artifact_json(in);
  EXPECT_NE(json.find("\"flint.run_artifact\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"config_fingerprint\""), std::string::npos);
  for (const char* section :
       {"\"model\"", "\"system\"", "\"forecast\"", "\"telemetry\"", "\"ledger\"", "\"timeline\"",
        "\"scalars\""})
    EXPECT_NE(json.find(section), std::string::npos) << section;
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks_started\": 4"), std::string::npos);
  // One eval per round plus the checkpoint land in the timeline.
  EXPECT_EQ(count_occurrences(json, "\"kind\":\"eval\""), 5u);
  EXPECT_EQ(count_occurrences(json, "\"kind\":\"checkpoint\""), 1u);
}

TEST(RunArtifact, FingerprintIsSixteenHexDigits) {
  fl::RunResult run = synthetic_run();
  RunArtifactInputs in;
  in.run = &run;
  in.config_text = "x";
  std::string json = render_run_artifact_json(in);
  auto pos = json.find("\"config_fingerprint\": \"");
  ASSERT_NE(pos, std::string::npos);
  std::string hex = json.substr(pos + std::string("\"config_fingerprint\": \"").size(), 16);
  EXPECT_EQ(hex.size(), 16u);
  for (char c : hex) EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << hex;
}

TEST(RunArtifact, NonFiniteRendersAsNull) {
  fl::RunResult run = synthetic_run();
  RunArtifactInputs in;
  in.run = &run;
  in.scalars = {{"bad", std::numeric_limits<double>::quiet_NaN()},
                {"worse", std::numeric_limits<double>::infinity()}};
  std::string json = render_run_artifact_json(in);
  EXPECT_EQ(count_occurrences(json, "null"), 2u);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(RunArtifact, TimelineRoundsStrideDownToBudget) {
  fl::RunResult run = synthetic_run(/*rounds=*/100);
  RunArtifactInputs in;
  in.run = &run;
  in.max_timeline_events = 120;  // 100 evals + 1 checkpoint leave ~19 round slots
  std::string json = render_run_artifact_json(in);
  std::size_t round_events = count_occurrences(json, "\"kind\":\"round\"");
  EXPECT_LE(round_events, 20u);
  EXPECT_GE(round_events, 1u);
  // Evals and checkpoints are never strided away.
  EXPECT_EQ(count_occurrences(json, "\"kind\":\"eval\""), 100u);
  EXPECT_EQ(count_occurrences(json, "\"kind\":\"checkpoint\""), 1u);
  // The final round survives downsampling.
  EXPECT_NE(json.find("\"kind\":\"round\",\"round\":100"), std::string::npos);
}

TEST(RunArtifact, ZeroBudgetKeepsEveryEvent) {
  fl::RunResult run = synthetic_run(/*rounds=*/50);
  RunArtifactInputs in;
  in.run = &run;
  in.max_timeline_events = 0;
  std::string json = render_run_artifact_json(in);
  EXPECT_EQ(count_occurrences(json, "\"kind\":\"round\""), 50u);
}

TEST(RunArtifact, RequiresRun) {
  RunArtifactInputs in;
  EXPECT_THROW(render_run_artifact_json(in), util::CheckError);
}

TEST(RunArtifact, WriteCreatesParentDirectories) {
  fl::RunResult run = synthetic_run();
  RunArtifactInputs in;
  in.run = &run;
  in.name = "write-test";
  fs::path dir = fs::temp_directory_path() / "flint_run_artifact_test";
  fs::remove_all(dir);
  std::string path = (dir / "nested" / "artifact.json").string();
  write_run_artifact(path, in);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_NE(buf.str().find("\"flint.run_artifact\""), std::string::npos);
  fs::remove_all(dir);
}

// ---------------------------------------------------- ledger reconciliation

void expect_rollups_reconcile(const fl::RunResult& r) {
  const sim::SimMetrics& m = r.metrics;
  ASSERT_FALSE(r.ledger.empty());

  // Totals mirror the aggregate counters exactly: both sides are fed from the
  // same on_task_finished choke point.
  const auto& t = r.ledger.totals;
  EXPECT_EQ(t.tasks_succeeded, m.tasks_succeeded());
  EXPECT_EQ(t.tasks_interrupted, m.tasks_interrupted());
  EXPECT_EQ(t.tasks_stale, m.tasks_stale());
  EXPECT_EQ(t.tasks_failed, m.tasks_failed());
  EXPECT_NEAR(t.compute_s, m.client_compute_s(), 1e-6 * std::max(1.0, m.client_compute_s()));

  // Every classification axis partitions the same account.
  for (const auto* axis : {&r.ledger.by_tier, &r.ledger.by_cohort, &r.ledger.by_executor}) {
    std::uint64_t finished = 0;
    double compute = 0.0;
    std::uint64_t bytes_up = 0;
    for (const auto& row : *axis) {
      finished += row.tasks_finished();
      compute += row.compute_s;
      bytes_up += row.bytes_up;
    }
    EXPECT_EQ(finished, t.tasks_finished());
    EXPECT_NEAR(compute, t.compute_s, 1e-6 * std::max(1.0, t.compute_s));
    EXPECT_EQ(bytes_up, t.bytes_up);
  }

  // Stragglers are ranked worst-first by wasted compute.
  for (std::size_t i = 1; i < r.ledger.stragglers.size(); ++i)
    EXPECT_GE(r.ledger.stragglers[i - 1].wasted_compute_s,
              r.ledger.stragglers[i].wasted_compute_s);
}

TEST(LedgerReconciliation, FedbuffPerTierTotalsMatchSimMetrics) {
  util::Rng rng(11);
  auto task = test::small_task(rng, 40);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::staggered_trace(40, 4000.0, 500.0);
  auto model = task.make_model(rng);
  fl::AsyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 10;
  cfg.buffer_size = 4;
  cfg.max_concurrency = 8;
  cfg.max_staleness = 2;  // force some stale discards so waste is attributed

  fl::RunResult r = fl::run_fedbuff(cfg);
  ASSERT_GT(r.metrics.tasks_started(), 0u);
  expect_rollups_reconcile(r);
}

TEST(LedgerReconciliation, FedavgMatchesToo) {
  util::Rng rng(12);
  auto task = test::small_task(rng, 40);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(40, 1e9);
  auto model = task.make_model(rng);
  fl::SyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 6;
  cfg.cohort_size = 6;
  cfg.overcommit = 1.5;  // overcommitted stragglers become attributed waste

  fl::RunResult r = fl::run_fedavg(cfg);
  ASSERT_GT(r.metrics.tasks_started(), 0u);
  expect_rollups_reconcile(r);
}

TEST(LedgerReconciliation, DisabledLedgerStaysEmpty) {
  util::Rng rng(13);
  auto task = test::small_task(rng, 20);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(20, 1e9);
  auto model = task.make_model(rng);
  fl::AsyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 3;
  cfg.inputs.collect_ledger = false;
  cfg.buffer_size = 4;
  cfg.max_concurrency = 8;

  fl::RunResult r = fl::run_fedbuff(cfg);
  EXPECT_GT(r.metrics.tasks_started(), 0u);
  EXPECT_TRUE(r.ledger.empty());
  EXPECT_TRUE(r.ledger.stragglers.empty());
}

TEST(LedgerReconciliation, ArtifactEmbedsReconciledLedger) {
  util::Rng rng(14);
  auto task = test::small_task(rng, 30);
  auto catalog = device::DeviceCatalog::standard();
  test::FixedBandwidthModel bw(50.0);
  auto trace = test::always_available(30, 1e9);
  auto model = task.make_model(rng);
  fl::AsyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 5;
  cfg.buffer_size = 4;
  cfg.max_concurrency = 8;

  fl::RunResult r = fl::run_fedbuff(cfg);
  ASSERT_FALSE(r.ledger.empty());
  RunArtifactInputs in;
  in.run = &r;
  in.name = "ledger-embed";
  std::string json = render_run_artifact_json(in);
  // The totals row and at least one tier row made it into the document.
  EXPECT_NE(json.find("\"key\":\"all\""), std::string::npos);
  std::ostringstream want;
  want << "\"tasks_succeeded\":" << r.metrics.tasks_succeeded();
  EXPECT_NE(json.find(want.str()), std::string::npos);
}

}  // namespace
}  // namespace flint::core
