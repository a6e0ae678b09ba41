#include "flint/obs/client_ledger.h"

#include <algorithm>

#include "flint/util/check.h"

namespace flint::obs {

ClientLedger::ClientLedger()
    : tier_labels_{"high-end", "mid-range", "low-end"},
      cohort_labels_{"rare", "regular", "always-on"} {}

std::uint32_t ClientLedger::slot(std::uint64_t client_id) {
  std::uint32_t s = keys_.intern(client_id);
  if (s == tier_.size()) {
    // First touch: append one zeroed row across every column.
    tier_.push_back(0);
    cohort_.push_back(0);
    executor_.push_back(0);
    tasks_succeeded_.push_back(0);
    tasks_interrupted_.push_back(0);
    tasks_stale_.push_back(0);
    tasks_failed_.push_back(0);
    compute_s_.push_back(0.0);
    wasted_compute_s_.push_back(0.0);
    bytes_down_.push_back(0);
    bytes_up_.push_back(0);
  }
  return s;
}

ClientLedgerEntry ClientLedger::entry_at(std::uint32_t s) const {
  FLINT_CHECK_LT(s, keys_.size());
  ClientLedgerEntry e;
  e.client_id = keys_.key_at(s);
  e.tier = tier_[s];
  e.cohort = cohort_[s];
  e.executor = executor_[s];
  e.tasks_succeeded = tasks_succeeded_[s];
  e.tasks_interrupted = tasks_interrupted_[s];
  e.tasks_stale = tasks_stale_[s];
  e.tasks_failed = tasks_failed_[s];
  e.compute_s = compute_s_[s];
  e.wasted_compute_s = wasted_compute_s_[s];
  e.bytes_down = bytes_down_[s];
  e.bytes_up = bytes_up_[s];
  return e;
}

void ClientLedger::register_client(std::uint64_t client_id, std::uint32_t tier,
                                   std::uint32_t cohort, std::uint32_t executor) {
  std::uint32_t s = slot(client_id);
  tier_[s] = tier;
  cohort_[s] = cohort;
  executor_[s] = executor;
}

void ClientLedger::restore_account(const ClientLedgerEntry& account) {
  FLINT_CHECK_FINITE(account.compute_s);
  FLINT_CHECK_GE(account.compute_s, 0.0);
  FLINT_CHECK_FINITE(account.wasted_compute_s);
  FLINT_CHECK_GE(account.wasted_compute_s, 0.0);
  std::uint32_t s = slot(account.client_id);
  tasks_succeeded_[s] = account.tasks_succeeded;
  tasks_interrupted_[s] = account.tasks_interrupted;
  tasks_stale_[s] = account.tasks_stale;
  tasks_failed_[s] = account.tasks_failed;
  compute_s_[s] = account.compute_s;
  wasted_compute_s_[s] = account.wasted_compute_s;
  bytes_down_[s] = account.bytes_down;
  bytes_up_[s] = account.bytes_up;
}

void ClientLedger::on_task_finished(std::uint64_t client_id, LedgerOutcome outcome,
                                    double compute_s, std::uint64_t update_bytes) {
  FLINT_CHECK_FINITE(compute_s);
  FLINT_CHECK_GE(compute_s, 0.0);
  std::uint32_t s = slot(client_id);
  compute_s_[s] += compute_s;
  bytes_down_[s] += update_bytes;
  switch (outcome) {
    case LedgerOutcome::kSucceeded:
      ++tasks_succeeded_[s];
      bytes_up_[s] += update_bytes;
      break;
    case LedgerOutcome::kInterrupted:
      // Left the availability window mid-task: partial compute, no upload.
      ++tasks_interrupted_[s];
      wasted_compute_s_[s] += compute_s;
      break;
    case LedgerOutcome::kStale:
      // Ran to completion and uploaded, but the update was discarded.
      ++tasks_stale_[s];
      wasted_compute_s_[s] += compute_s;
      bytes_up_[s] += update_bytes;
      break;
    case LedgerOutcome::kFailed:
      ++tasks_failed_[s];
      wasted_compute_s_[s] += compute_s;
      break;
  }
}

namespace {

void fold(LedgerRollup& rollup, const ClientLedgerEntry& e) {
  ++rollup.clients;
  rollup.tasks_succeeded += e.tasks_succeeded;
  rollup.tasks_interrupted += e.tasks_interrupted;
  rollup.tasks_stale += e.tasks_stale;
  rollup.tasks_failed += e.tasks_failed;
  rollup.compute_s += e.compute_s;
  rollup.wasted_compute_s += e.wasted_compute_s;
  rollup.bytes_down += e.bytes_down;
  rollup.bytes_up += e.bytes_up;
}

}  // namespace

ClientLedgerSummary ClientLedger::summary(std::size_t top_k) const {
  ClientLedgerSummary out;
  out.totals.key = "all";
  out.by_tier.resize(tier_labels_.size());
  for (std::size_t i = 0; i < tier_labels_.size(); ++i) out.by_tier[i].key = tier_labels_[i];
  out.by_cohort.resize(cohort_labels_.size());
  for (std::size_t i = 0; i < cohort_labels_.size(); ++i)
    out.by_cohort[i].key = cohort_labels_[i];

  // Materialize the active accounts and fold them in ascending client-id
  // order, never slot (first-touch) order. The rollups accumulate doubles,
  // and float addition does not commute at the bit level: folding in touch
  // order would make the summary depend on insertion history — a fresh run
  // (task-completion order) and a resumed run (restore_account in client-id
  // order) would produce artifacts that differ in the last ulp, breaking the
  // bit-identical resume contract.
  std::vector<ClientLedgerEntry> ordered;
  ordered.reserve(keys_.size());
  std::uint32_t max_executor = 0;
  for (std::uint32_t s = 0; s < keys_.size(); ++s) {
    ClientLedgerEntry e = entry_at(s);
    max_executor = std::max(max_executor, e.executor);
    if (e.tasks_finished() == 0) continue;  // registered but never ran
    ordered.push_back(e);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const ClientLedgerEntry& a, const ClientLedgerEntry& b) {
              return a.client_id < b.client_id;
            });

  out.by_executor.resize(static_cast<std::size_t>(max_executor) + 1);
  for (std::size_t i = 0; i < out.by_executor.size(); ++i)
    out.by_executor[i].key = "executor-" + std::to_string(i);

  for (const ClientLedgerEntry& e : ordered) {
    fold(out.totals, e);
    fold(out.by_tier[std::min<std::size_t>(e.tier, out.by_tier.size() - 1)], e);
    fold(out.by_cohort[std::min<std::size_t>(e.cohort, out.by_cohort.size() - 1)], e);
    fold(out.by_executor[e.executor], e);
  }
  // Drop trailing executors with no work so sparse assignments stay compact.
  while (!out.by_executor.empty() && out.by_executor.back().clients == 0)
    out.by_executor.pop_back();

  // Stragglers: worst wasted compute first; ties broken by client id so the
  // ranking (and therefore the artifact) is deterministic.
  std::size_t k = std::min(top_k, ordered.size());
  std::partial_sort(ordered.begin(), ordered.begin() + static_cast<std::ptrdiff_t>(k),
                    ordered.end(), [](const ClientLedgerEntry& a, const ClientLedgerEntry& b) {
                      if (a.wasted_compute_s != b.wasted_compute_s)
                        return a.wasted_compute_s > b.wasted_compute_s;
                      return a.client_id < b.client_id;
                    });
  out.stragglers.assign(ordered.begin(), ordered.begin() + static_cast<std::ptrdiff_t>(k));
  return out;
}

}  // namespace flint::obs
