#include "flint/core/decision_workflow.h"

#include <sstream>

#include "flint/util/check.h"

namespace flint::core {

const char* verdict_name(StageVerdict verdict) {
  switch (verdict) {
    case StageVerdict::kPass: return "PASS";
    case StageVerdict::kPassWithNotes: return "PASS (notes)";
    case StageVerdict::kBlock: return "BLOCK";
  }
  return "?";
}

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kUnderstandClientData: return "understand-client-data";
    case Stage::kDeviceBenchmark: return "device-benchmark";
    case Stage::kAvailabilityAnalysis: return "availability-analysis";
    case Stage::kProxyDataGeneration: return "proxy-data-generation";
    case Stage::kOfflineFlEvaluation: return "offline-fl-evaluation";
    case Stage::kResourceForecast: return "resource-forecast";
    case Stage::kPrivacySecurityReview: return "privacy-security-review";
    case Stage::kDeploymentDecision: return "deployment-decision";
  }
  return "?";
}

std::string DecisionReport::to_string() const {
  std::ostringstream os;
  for (const auto& e : entries) {
    os << "[" << verdict_name(e.report.verdict) << "] " << stage_name(e.stage);
    if (!e.report.notes.empty()) os << " — " << e.report.notes;
    for (const auto& [k, v] : e.report.measurements) os << "\n    " << k << " = " << v;
    os << "\n";
  }
  os << (go ? "DECISION: GO" : "DECISION: NO-GO (blocked at " + blocked_at + ")") << "\n";
  return os.str();
}

const std::vector<Stage>& DecisionWorkflow::canonical_order() {
  static const std::vector<Stage> kOrder = {
      Stage::kUnderstandClientData,  Stage::kDeviceBenchmark,
      Stage::kAvailabilityAnalysis,  Stage::kProxyDataGeneration,
      Stage::kOfflineFlEvaluation,   Stage::kResourceForecast,
      Stage::kPrivacySecurityReview, Stage::kDeploymentDecision,
  };
  return kOrder;
}

void DecisionWorkflow::set_stage(Stage stage, StageFn fn) {
  FLINT_CHECK_MSG(fn != nullptr, "stage callback must not be null");
  stages_[stage] = std::move(fn);
}

DecisionReport DecisionWorkflow::run() const {
  DecisionReport report;
  for (Stage stage : canonical_order()) {
    auto it = stages_.find(stage);
    if (it == stages_.end()) {
      StageReport skipped;
      skipped.verdict = StageVerdict::kPassWithNotes;
      skipped.notes = "stage not instrumented; skipped";
      report.entries.push_back({stage, std::move(skipped)});
      continue;
    }
    StageReport r = it->second();
    bool block = r.verdict == StageVerdict::kBlock;
    report.entries.push_back({stage, std::move(r)});
    if (block) {
      report.go = false;
      report.blocked_at = stage_name(stage);
      return report;
    }
  }
  report.go = true;
  return report;
}

}  // namespace flint::core
