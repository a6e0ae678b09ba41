// The decision workflow (paper Figure 9, §3.7): a staged gate process that
// strings the platform's tools together so "the important risks and
// challenges of each FL project are practically assessed before deployment
// reaches the users". Stages run in order; each returns a verdict, and
// blocking failures stop the workflow.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace flint::core {

/// A stage's verdict.
enum class StageVerdict {
  kPass,            ///< proceed
  kPassWithNotes,   ///< proceed, concerns recorded
  kBlock,           ///< stop: the project is not FL-ready in this form
};

const char* verdict_name(StageVerdict verdict);

/// What a stage reports back.
struct StageReport {
  StageVerdict verdict = StageVerdict::kPass;
  std::string notes;
  /// Named measurements (availability %, projected days, metric deltas...).
  std::map<std::string, double> measurements;
};

/// The canonical stages of Figure 9 in execution order.
enum class Stage {
  kUnderstandClientData,    ///< data quantity/label skew, proxy feasibility
  kDeviceBenchmark,         ///< on-device footprint of candidate models
  kAvailabilityAnalysis,    ///< participation criteria and trace generation
  kProxyDataGeneration,     ///< build and register the proxy dataset
  kOfflineFlEvaluation,     ///< simulated FL vs centralized
  kResourceForecast,        ///< device/cloud resource projection
  kPrivacySecurityReview,   ///< DP / SecAgg / threat review
  kDeploymentDecision,      ///< final go/no-go synthesis
};

const char* stage_name(Stage stage);

/// Result of running the workflow.
struct DecisionReport {
  struct Entry {
    Stage stage;
    StageReport report;
  };
  std::vector<Entry> entries;
  bool go = false;           ///< reached the end with no blocking failure
  std::string blocked_at;    ///< stage name when !go (empty otherwise)

  std::string to_string() const;
};

/// Orchestrates stage callbacks. Stages that are registered run in the
/// canonical order; unregistered stages are skipped with a note, so teams
/// can adopt the workflow incrementally.
class DecisionWorkflow {
 public:
  using StageFn = std::function<StageReport()>;

  /// Register (or replace) the callback for a stage.
  void set_stage(Stage stage, StageFn fn);

  /// Run all registered stages in order. Stops at the first kBlock.
  DecisionReport run() const;

  /// All stages in canonical order.
  static const std::vector<Stage>& canonical_order();

 private:
  std::map<Stage, StageFn> stages_;
};

}  // namespace flint::core
