// flint_executor — the executor side of the multi-process runtime
// (DESIGN.md §14). Connects to a leader, registers, and serves TaskLeases
// with the same compute_client_update the in-process paths run, until the
// leader sends Shutdown or the connection drops.
//
// Flags: --connect-unix PATH, or --connect-tcp HOST --port N; --name NAME
// (reported at registration); --kernels SPEC (leaders forward their own, so
// the fleet shares one set of numerics); --trace-out / --metrics-out PATH
// (this process's Chrome trace and metrics JSONL, written on exit).
//
// The process always runs with metrics enabled so its counters ship to the
// leader on each heartbeat (DESIGN.md §15); tracing turns on only with
// --trace-out. Telemetry is flushed on clean Shutdown, on CheckError, and —
// via atexit — on any other orderly exit, so tail events are never lost.
//
// The connect retries for a few seconds: the leader spawns executors right
// after binding, but a TCP listener in another process may not be accepting
// the instant the child starts.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "flint/core/run_spec.h"
#include "flint/fl/remote_executor.h"
#include "flint/obs/telemetry.h"
#include "flint/rpc/executor_worker.h"
#include "flint/rpc/transport.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace {

// atexit flush hook (satellite: clean shutdowns never lose tail events).
// Cleared once the normal path has exported, so a double export cannot
// happen; still set if exit() fires from an unexpected path.
flint::obs::Telemetry* g_atexit_telemetry = nullptr;

void flush_telemetry_at_exit() {
  if (g_atexit_telemetry != nullptr) {
    g_atexit_telemetry->export_all();
    g_atexit_telemetry = nullptr;
  }
}

std::unique_ptr<flint::rpc::Transport> connect_with_retry(const std::string& unix_path,
                                                          const std::string& tcp_host,
                                                          std::uint16_t tcp_port) {
  constexpr int kAttempts = 100;  // 100 * 100ms = 10s
  for (int attempt = 0;; ++attempt) {
    try {
      if (!unix_path.empty()) return flint::rpc::connect_unix(unix_path);
      return flint::rpc::connect_tcp(tcp_host, tcp_port);
    } catch (const flint::util::CheckError&) {
      if (attempt + 1 >= kAttempts) throw;
      ::usleep(100 * 1000);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  std::string tcp_host;
  std::uint16_t tcp_port = 0;
  std::string name = "executor";
  flint::core::RunSpec spec("flint_executor");
  spec.flag("connect-unix", flint::core::FlagKind::kWallTime, &unix_path, "PATH")
      .flag("connect-tcp", flint::core::FlagKind::kWallTime, &tcp_host, "HOST")
      .flag("port", flint::core::FlagKind::kWallTime, &tcp_port, 1)
      .flag("name", flint::core::FlagKind::kWallTime, &name, "NAME")
      .with_kernels()
      .with_telemetry(/*status=*/false);
  spec.parse_or_exit(argc, argv);
  if (unix_path.empty() && (tcp_host.empty() || tcp_port == 0)) {
    std::cerr << "flint_executor: need --connect-unix PATH or --connect-tcp HOST --port N\n";
    return 2;
  }

  // Metrics always on: the executor's registry ships to the leader on every
  // heartbeat. Tracing costs memory per span, so it gates on --trace-out.
  flint::obs::TelemetryConfig tc = spec.telemetry;
  tc.metrics_enabled = true;
  flint::obs::Telemetry telemetry(std::move(tc));
  flint::obs::ScopedTelemetry scoped(&telemetry);
  g_atexit_telemetry = &telemetry;
  std::atexit(flush_telemetry_at_exit);
  // Role upgraded to executor-<id> once the RegisterAck assigns an id.
  flint::util::Logger::instance().set_role("executor");

  try {
    auto transport = connect_with_retry(unix_path, tcp_host, tcp_port);
    flint::fl::LeaseTrainService service;
    flint::rpc::ExecutorWorker worker(*transport, service, name,
                                      /*ship_telemetry=*/true);
    worker.run();
    // Shutdown receipt (or leader hangup): flush here, then disarm the
    // atexit hook — it exists for exits that bypass this path.
    telemetry.export_all();
    g_atexit_telemetry = nullptr;
    std::cerr << "flint_executor " << name << ": served " << worker.leases_served()
              << " lease(s), exiting\n";
  } catch (const flint::util::CheckError& e) {
    telemetry.export_all();
    g_atexit_telemetry = nullptr;
    std::cerr << "flint_executor " << name << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
