// Kill-and-resume e2e driver (DESIGN.md §12): runs a small synthetic FL
// study (fedavg or fedbuff) with periodic checkpoints, optionally aborting
// the process mid-run at a known round to simulate a crash, and optionally
// resuming from the newest checkpoint. scripts/crash_resume_test.sh drives
// three invocations — uninterrupted reference, crashed run, resumed run —
// and asserts the resumed artifact matches the reference bit-for-bit
// (tools/flint_compare.py at 0% tolerance, plus a parameter fingerprint).
//
// Flags (the usage line lists them all): --algo fedavg|fedbuff (default
// fedbuff), --rounds N (8), --seed N (7) and --faults (a deterministic
// executor-outage plan) set the study and its fingerprint. Checkpoints go
// every 2 rounds by default. --abort-after-round N _Exit(137)s after round N
// completes (0 = never); --kill-executor-after-round N SIGKILLs executor
// child 0 after round N on unix/tcp, and the run must still finish
// bit-identical (scripts/rpc_fault_test.sh). The shared threads, checkpoint,
// artifact and rpc flags are as in README "Command-line flags".
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "flint/core/run_artifact.h"
#include "flint/core/run_spec.h"
#include "flint/data/synthetic_tasks.h"
#include "flint/device/availability.h"
#include "flint/device/device_catalog.h"
#include "flint/device/session_generator.h"
#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"
#include "flint/net/bandwidth_model.h"
#include "flint/sim/fault_injector.h"
#include "flint/util/rng.h"

namespace {

// Exact 64-bit fingerprint of the final parameters, split into two 32-bit
// halves so the artifact's double-valued scalars carry it losslessly.
std::uint64_t param_fingerprint(const std::vector<float>& params) {
  static_assert(std::is_trivially_copyable_v<float>);
  std::string bytes(reinterpret_cast<const char*>(params.data()),
                    params.size() * sizeof(float));
  return flint::core::fingerprint64(bytes);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flint;

  std::string algo = "fedbuff";
  std::uint64_t rounds = 8;
  std::uint64_t seed = 7;
  bool faults = false;
  std::uint64_t abort_after_round = 0;
  std::uint64_t kill_executor_after_round = 0;
  // The crash/resume lineage and the execution mode stay out of the
  // fingerprint: the compare step diffs a resumed or rpc run against a fresh one.
  core::RunSpec spec("crash_resume_driver:");
  spec.flag("algo", core::FlagKind::kResult, &algo, "fedavg|fedbuff")
      .flag("rounds", core::FlagKind::kResult, &rounds, 1)
      .flag("seed", core::FlagKind::kResult, &seed, 0)
      .flag("faults", core::FlagKind::kResult, &faults)
      .flag("abort-after-round", core::FlagKind::kWallTime, &abort_after_round, 0)
      .flag("kill-executor-after-round", core::FlagKind::kWallTime,
            &kill_executor_after_round, 0)
      .with_threads()
      .with_checkpoints(2)
      .with_artifact("")
      .with_rpc();
  spec.parse_or_exit(argc, argv);

  // Deterministic synthetic study: everything below derives from --seed, so
  // reference / crashed / resumed invocations see the same world.
  util::Rng rng(seed);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig sessions;
  sessions.clients = 120;
  sessions.days = 2;
  sessions.mean_session_s = 1800.0;
  auto log = device::generate_sessions(sessions, catalog, rng);
  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  auto trace = device::build_availability(log, criteria, catalog);

  data::SyntheticTaskConfig task_cfg;
  task_cfg.domain = data::Domain::kAds;
  task_cfg.clients = 120;
  task_cfg.mean_records = 40.0;
  task_cfg.max_records = 400;
  task_cfg.dense_dim = 12;
  task_cfg.test_examples = 1000;
  auto task = data::make_synthetic_task(task_cfg, rng);
  auto model = task.make_model(rng);

  net::PufferLikeBandwidthModel bandwidth;
  fl::RunInputs inputs;
  inputs.threads = spec.threads;
  inputs.dataset = &task.train;
  inputs.dense_dim = task.batch_dense_dim();
  inputs.model_template = model.get();
  inputs.trace = &trace;
  inputs.catalog = &catalog;
  inputs.bandwidth = &bandwidth;
  inputs.test = &task.test;
  inputs.domain = task.config.domain;
  inputs.local.loss = task.loss_kind();
  inputs.duration = fl::TaskDurationModel::from_spec(ml::model_spec('A'), 1);
  inputs.max_rounds = rounds;
  inputs.eval_every_rounds = 2;
  inputs.reparticipation_gap_s = 600.0;
  inputs.seed = seed;
  if (faults) {
    // Same seed => same outage plan; the crash interacts with real executor
    // downtime exactly as an uninterrupted run would.
    sim::FaultPlanConfig fault_cfg;
    fault_cfg.mean_time_between_failures_s = 6.0 * 3600.0;
    fault_cfg.mean_outage_s = 900.0;
    fault_cfg.horizon_s = 24.0 * 3600.0;
    util::Rng fault_rng = util::derive_stream(seed, 0xFA17ull);
    inputs.outages = sim::plan_faults(inputs.leader.executor_count, fault_cfg, fault_rng);
  }

  auto checkpoints = spec.open_checkpoints(inputs);
  // Rpc execution mode (DESIGN.md §14): leases to loopback workers or
  // spawned executor children instead of in-process training. Started
  // before the hooks below so the kill hook can reach the child processes.
  auto rpc_runtime = spec.start_rpc(inputs);

  if (abort_after_round > 0) {
    inputs.round_hook = [abort_after_round](std::uint64_t round) {
      if (round >= abort_after_round) {
        // Simulated crash: no destructors, no flushes beyond this point —
        // exactly what a SIGKILL mid-run leaves behind. 137 = 128 + SIGKILL.
        std::cout << "crash_resume_driver: aborting after round " << round << "\n"
                  << std::flush;
        std::_Exit(137);
      }
    };
  } else if (kill_executor_after_round > 0 && rpc_runtime != nullptr &&
             rpc_runtime->process_count() > 0) {
    // Executor-fault injection: SIGKILL child 0 at a known round. The leader
    // must detect the loss (EOF) and re-dispatch its outstanding leases to
    // the survivors; the final artifact must stay bit-identical.
    bool killed = false;
    inputs.round_hook = [&rpc_runtime, &killed,
                         kill_executor_after_round](std::uint64_t round) {
      if (killed || round < kill_executor_after_round) return;
      killed = true;
      std::cout << "crash_resume_driver: SIGKILLing executor 0 after round " << round
                << "\n"
                << std::flush;
      rpc_runtime->process(0).kill();
    };
  }

  fl::RunResult result;
  if (algo == "fedavg") {
    fl::SyncConfig cfg;
    cfg.inputs = inputs;
    cfg.cohort_size = 8;
    cfg.overcommit = 1.3;
    cfg.round_deadline_s = 2.0 * 3600.0;
    result = fl::run_fedavg(cfg);
  } else {
    fl::AsyncConfig cfg;
    cfg.inputs = inputs;
    cfg.buffer_size = 6;
    cfg.max_concurrency = 16;
    cfg.max_staleness = 20;
    result = fl::run_fedbuff(cfg);
  }

  std::uint64_t fp = param_fingerprint(result.final_parameters);
  std::cout << "algo=" << algo << " rounds=" << result.rounds
            << " final_metric=" << result.final_metric
            << " resumed_from_round=" << result.resumed_from_round
            << " resume_count=" << result.resume_count << " param_fp=" << std::hex << fp
            << std::dec << "\n";

  if (!spec.artifact_out.empty()) {
    core::RunArtifactInputs artifact;
    artifact.run = &result;
    artifact.name = "crash_resume_driver";
    artifact.metric_name = task.metric_name();
    artifact.config_text = spec.config_text();
    artifact.scalars = {
        {"param_fingerprint_lo", static_cast<double>(fp & 0xFFFFFFFFull)},
        {"param_fingerprint_hi", static_cast<double>(fp >> 32)},
    };
    core::write_run_artifact(spec.artifact_out, artifact);
  }
  return 0;
}
