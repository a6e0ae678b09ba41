// fl::RpcRuntime — one-stop harness the drivers (quickstart, benches, test
// drivers) use to stand up the leader/executor runtime for a run
// (DESIGN.md §14):
//
//   kInProcess  no rpc at all: the classic TrainerPool path (leader() null).
//   kLoopback   N ExecutorWorkers on util::ThreadPool workers, talking to
//               the leader over in-process LoopbackTransport pairs. Same
//               frames, same CRCs, no file descriptors — the cheap way to
//               exercise the full wire path in unit tests and CI.
//   kUnix       N spawned `flint_executor` child processes connected over a
//               Unix-domain socket.
//   kTcp        same, over 127.0.0.1 TCP (ephemeral port).
//
// Construction registers all executors (handshake included); destruction
// sends Shutdown, joins the loopback workers, and reaps the children.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "flint/fl/run_common.h"
#include "flint/rpc/leader.h"
#include "flint/rpc/process.h"
#include "flint/util/thread_pool.h"

namespace flint::fl {

enum class TransportKind { kInProcess, kLoopback, kUnix, kTcp };

/// Parse a --transport flag value ("loopback", "unix", "tcp"; "inprocess" /
/// "none" select the classic path). Throws CheckError on anything else.
TransportKind parse_transport(const std::string& name);

const char* transport_name(TransportKind kind);

struct RpcRuntimeConfig {
  TransportKind kind = TransportKind::kInProcess;
  std::size_t executors = 2;
  /// Path to the flint_executor binary (kUnix/kTcp only).
  std::string executor_bin;
  /// Directory for the Unix socket (kUnix only); default: current directory.
  std::string socket_dir = ".";
  double heartbeat_interval_s = 0.5;
  double heartbeat_timeout_s = 10.0;
  double lease_timeout_s = 120.0;
  double register_timeout_s = 30.0;
  /// Multi-process trace fan-out (DESIGN.md §15): when non-empty, each
  /// spawned executor writes its own Chrome trace to
  /// `<trace_dir>/executor-<i>.trace.json` and the leader labels its tracer
  /// for the merged view. Empty = executors run without tracing.
  std::string trace_dir;
};

class RpcRuntime {
 public:
  /// Builds the runtime for one run: serializes the model for RegisterAck,
  /// stands up the transports, and blocks until all executors registered.
  /// kInProcess constructs nothing.
  RpcRuntime(const RpcRuntimeConfig& config, const RunInputs& inputs);
  ~RpcRuntime();
  RpcRuntime(const RpcRuntime&) = delete;
  RpcRuntime& operator=(const RpcRuntime&) = delete;

  /// The leader to plant in RunInputs::rpc_leader (null for kInProcess).
  rpc::Leader* leader() { return leader_.get(); }

  /// Spawned executor children (kUnix/kTcp); fault tests kill() these.
  std::size_t process_count() const { return processes_.size(); }
  rpc::SpawnedProcess& process(std::size_t i) { return *processes_[i]; }

 private:
  std::uint16_t leader_listen_port() const;

  RpcRuntimeConfig config_;
  std::unique_ptr<rpc::Leader> leader_;
  std::unique_ptr<util::ThreadPool> loopback_pool_;
  std::vector<util::TaskHandle<void>> loopback_workers_;
  std::vector<std::unique_ptr<rpc::SpawnedProcess>> processes_;
};

}  // namespace flint::fl
