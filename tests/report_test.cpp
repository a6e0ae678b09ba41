#include "flint/core/report.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "flint/fl/fedbuff.h"
#include "csv_reader.h"
#include "test_helpers.h"

namespace flint::core {
namespace {

namespace fs = std::filesystem;

fl::RunResult sample_run() {
  util::Rng rng(1);
  static auto task = test::small_task(rng, 40);
  static auto catalog = device::DeviceCatalog::standard();
  static test::FixedBandwidthModel bw(50.0);
  static auto trace = test::always_available(40, 1e9);
  static auto model = task.make_model(rng);
  fl::AsyncConfig cfg;
  test::wire_inputs(cfg.inputs, task, *model, trace, catalog, bw);
  cfg.inputs.max_rounds = 8;
  cfg.inputs.eval_every_rounds = 2;
  cfg.buffer_size = 4;
  cfg.max_concurrency = 8;
  return fl::run_fedbuff(cfg);
}

TEST(Report, MarkdownContainsAllSections) {
  fl::RunResult run = sample_run();
  ResourceForecast forecast = forecast_resources(run, ForecastConfig{});
  ReportInputs inputs;
  inputs.title = "ads pilot";
  inputs.run = &run;
  inputs.forecast = &forecast;
  inputs.centralized_metric = 0.9;
  inputs.metric_name = "AUPR";
  std::string md = render_report_markdown(inputs);
  EXPECT_NE(md.find("# ads pilot"), std::string::npos);
  EXPECT_NE(md.find("## Model metrics"), std::string::npos);
  EXPECT_NE(md.find("## System metrics"), std::string::npos);
  EXPECT_NE(md.find("## Resource forecast"), std::string::npos);
  EXPECT_NE(md.find("Centralized baseline"), std::string::npos);
  EXPECT_NE(md.find("AUPR"), std::string::npos);
  EXPECT_EQ(md.find("Fairness"), std::string::npos);  // not supplied
}

TEST(Report, OptionalSectionsSkipped) {
  fl::RunResult run = sample_run();
  ReportInputs inputs;
  inputs.run = &run;
  std::string md = render_report_markdown(inputs);
  EXPECT_EQ(md.find("Resource forecast"), std::string::npos);
  EXPECT_EQ(md.find("Centralized baseline"), std::string::npos);
}

TEST(Report, RequiresRun) {
  ReportInputs inputs;
  EXPECT_THROW(render_report_markdown(inputs), util::CheckError);
}

TEST(Report, WriteProducesFilesAndParsableCsv) {
  auto dir = fs::temp_directory_path() / "flint_report_test";
  fs::remove_all(dir);
  fl::RunResult run = sample_run();
  ReportInputs inputs;
  inputs.run = &run;
  std::string path = write_report(dir.string(), inputs);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fs::exists(dir / "eval_curve.csv"));
  EXPECT_TRUE(fs::exists(dir / "rounds.csv"));

  // rounds.csv parses back with one row per aggregation + header.
  std::ifstream in(dir / "rounds.csv");
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    auto cells = test::parse_csv_line(line);
    EXPECT_EQ(cells.size(), 6u);
    ++rows;
  }
  EXPECT_EQ(rows, run.metrics.rounds().size() + 1);
  fs::remove_all(dir);
}

TEST(Report, EvalCurveRendersAsBoundedMarkdownTable) {
  // A long run's curve must come out as a real markdown table, downsampled to
  // a bounded number of rows with the final point always present.
  fl::RunResult run;
  for (std::uint64_t r = 1; r <= 100; ++r)
    run.eval_curve.push_back({static_cast<double>(r) * 60.0, r, 0.5 + 0.001 * r, 0.0});
  run.rounds = 100;
  run.final_metric = run.eval_curve.back().metric;
  run.virtual_duration_s = 6000.0;
  ReportInputs inputs;
  inputs.run = &run;
  inputs.metric_name = "AUPR";
  std::string md = render_report_markdown(inputs);

  auto header = md.find("| round | virtual time (h) | AUPR |");
  ASSERT_NE(header, std::string::npos);
  EXPECT_NE(md.find("downsampled"), std::string::npos);
  // Count table body rows between the header separator and the blank line.
  auto sep = md.find("|---|---|---|", header);
  ASSERT_NE(sep, std::string::npos);
  std::size_t rows = 0;
  std::istringstream is(md.substr(md.find('\n', sep) + 1));
  std::string line;
  while (std::getline(is, line) && !line.empty() && line.front() == '|') ++rows;
  EXPECT_LE(rows, 20u);
  EXPECT_GE(rows, 10u);
  // The last eval point survives downsampling.
  EXPECT_NE(md.find("| 100 | "), std::string::npos);
}

TEST(Report, ShortEvalCurveKeepsEveryRow) {
  fl::RunResult run;
  for (std::uint64_t r = 1; r <= 5; ++r)
    run.eval_curve.push_back({static_cast<double>(r) * 60.0, r, 0.6, 0.0});
  run.rounds = 5;
  run.virtual_duration_s = 300.0;
  ReportInputs inputs;
  inputs.run = &run;
  std::string md = render_report_markdown(inputs);
  EXPECT_EQ(md.find("downsampled"), std::string::npos);
  for (const char* row : {"| 1 | ", "| 2 | ", "| 3 | ", "| 4 | ", "| 5 | "})
    EXPECT_NE(md.find(row), std::string::npos) << row;
}

TEST(Report, EvalCurveCsvMatchesRun) {
  auto dir = fs::temp_directory_path() / "flint_report_curve";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fl::RunResult run = sample_run();
  std::string path = (dir / "curve.csv").string();
  write_eval_curve_csv(path, run);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, run.eval_curve.size());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace flint::core
