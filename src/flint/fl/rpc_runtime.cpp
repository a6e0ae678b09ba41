#include "flint/fl/rpc_runtime.h"

#include <unistd.h>

#include <utility>

#include "flint/fl/remote_executor.h"
#include "flint/ml/kernels/kernels.h"
#include "flint/ml/serialize.h"
#include "flint/obs/telemetry.h"
#include "flint/rpc/executor_worker.h"
#include "flint/rpc/transport.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace flint::fl {

TransportKind parse_transport(const std::string& name) {
  if (name == "inprocess" || name == "none" || name.empty()) return TransportKind::kInProcess;
  if (name == "loopback") return TransportKind::kLoopback;
  if (name == "unix") return TransportKind::kUnix;
  if (name == "tcp") return TransportKind::kTcp;
  FLINT_CHECK_MSG(false, "unknown --transport '" << name
                                                 << "' (want inprocess|loopback|unix|tcp)");
  return TransportKind::kInProcess;
}

const char* transport_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess: return "inprocess";
    case TransportKind::kLoopback: return "loopback";
    case TransportKind::kUnix: return "unix";
    case TransportKind::kTcp: return "tcp";
  }
  return "?";
}

RpcRuntime::RpcRuntime(const RpcRuntimeConfig& config, const RunInputs& inputs)
    : config_(config) {
  if (config_.kind == TransportKind::kInProcess) return;
  FLINT_CHECK_GT(config_.executors, std::size_t{0});

  rpc::LeaderConfig lc;
  lc.heartbeat_interval_s = config_.heartbeat_interval_s;
  lc.heartbeat_timeout_s = config_.heartbeat_timeout_s;
  lc.lease_timeout_s = config_.lease_timeout_s;
  lc.register_timeout_s = config_.register_timeout_s;
  lc.dense_dim = inputs.dense_dim;
  if (!inputs.model_free && inputs.model_template != nullptr)
    lc.model_blob = ml::serialize_model(*inputs.model_template);
  leader_ = std::make_unique<rpc::Leader>(std::move(lc));

  if (config_.kind == TransportKind::kLoopback) {
    loopback_pool_ = std::make_unique<util::ThreadPool>(config_.executors);
    for (std::size_t i = 0; i < config_.executors; ++i) {
      auto [leader_end, worker_end] = rpc::LoopbackTransport::make_pair();
      std::string name = "loopback-" + std::to_string(i);
      loopback_workers_.push_back(
          loopback_pool_->submit([endpoint = std::move(worker_end), name = std::move(name)] {
            LeaseTrainService service;
            rpc::ExecutorWorker worker(*endpoint, service, name);
            worker.run();
          }));
      // Register after the worker is queued: the handshake blocks until the
      // worker answers, so a pool worker has claimed the task by the time
      // registration returns, and the destructor's join only waits for it.
      leader_->add_transport(std::move(leader_end));
    }
    return;
  }

  // Multi-process: listen, spawn `executors` children pointed at the
  // endpoint, then block until every one has registered.
  FLINT_CHECK_MSG(!config_.executor_bin.empty(),
                  "multi-process transport needs --executor-bin");
  // This process is the leader of a fleet: tag its log lines and (when
  // tracing) its trace tracks so merged output stays attributable.
  util::Logger::instance().set_role("leader");
  if (obs::Telemetry* t = obs::current(); t != nullptr && t->tracer().enabled())
    t->tracer().set_process_info("leader", 0);
  std::string connect_arg;
  if (config_.kind == TransportKind::kUnix) {
    std::string sock = config_.socket_dir + "/flint-rpc-" +
                       std::to_string(static_cast<long>(::getpid())) + ".sock";
    leader_->add_listener(rpc::Listener::listen_unix(sock));
    connect_arg = sock;
  } else {
    leader_->add_listener(rpc::Listener::listen_tcp(0));
  }
  for (std::size_t i = 0; i < config_.executors; ++i) {
    std::vector<std::string> argv;
    argv.push_back(config_.executor_bin);
    if (config_.kind == TransportKind::kUnix) {
      argv.push_back("--connect-unix");
      argv.push_back(connect_arg);
    } else {
      argv.push_back("--connect-tcp");
      argv.push_back("127.0.0.1");
      argv.push_back("--port");
      argv.push_back(std::to_string(leader_listen_port()));
    }
    argv.push_back("--name");
    argv.push_back(std::string(transport_name(config_.kind)) + "-" + std::to_string(i));
    // Forward the leader's kernel-path spec so the whole fleet computes on
    // one path — reductions like matmul_transposed are only deterministic
    // per path, and bit-identity requires every process to share it.
    argv.push_back("--kernels");
    argv.push_back(ml::kernels::requested_spec());
    if (!config_.trace_dir.empty()) {
      argv.push_back("--trace-out");
      argv.push_back(config_.trace_dir + "/executor-" + std::to_string(i) +
                     ".trace.json");
    }
    processes_.push_back(std::make_unique<rpc::SpawnedProcess>(argv));
  }
  leader_->wait_for_executors(config_.executors);
  FLINT_LOG_INFO << "rpc: " << config_.executors << " executor(s) registered over "
                 << transport_name(config_.kind);
}

std::uint16_t RpcRuntime::leader_listen_port() const {
  return leader_ != nullptr ? leader_->listen_port() : 0;
}

RpcRuntime::~RpcRuntime() {
  // Undo the multi-process role tag: a test binary may run many runtimes.
  if (config_.kind == TransportKind::kUnix || config_.kind == TransportKind::kTcp)
    util::Logger::instance().set_role("");
  if (leader_ != nullptr) leader_->shutdown("run complete");
  for (auto& worker : loopback_workers_) {
    if (worker.valid()) worker.get();
  }
  loopback_pool_.reset();
  // SpawnedProcess destructors reap the children (Shutdown lets them exit
  // cleanly; anything still alive is SIGKILLed).
  processes_.clear();
}

}  // namespace flint::fl
