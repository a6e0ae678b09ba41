// rpc::ExecutorWorker — the executor side of the leader/executor runtime.
//
// The worker is transport- and model-agnostic: it speaks the wire protocol
// (register, heartbeat, serve leases, obey shutdown) and delegates the actual
// training to a TrainService. The concrete service (fl::LeaseTrainService)
// lives in the fl layer, which keeps rpc below fl in the dependency order —
// rpc knows about frames and leases, never about simulators.
#pragma once

#include <memory>
#include <string>

#include "flint/obs/telemetry_snapshot.h"
#include "flint/rpc/messages.h"
#include "flint/rpc/transport.h"

namespace flint::rpc {

/// What an executor process actually computes. configure() is called once
/// with the RegisterAck (model blob, dense_dim); run_lease() once per lease.
class TrainService {
 public:
  virtual ~TrainService() = default;

  virtual void configure(const RegisterAckMsg& ack) = 0;

  /// Compute the update for one lease. Fills the payload fields of the
  /// result (delta, weight, mean_loss, examples, ok/error); the worker
  /// stamps lease_id/task_id/executor_id. Must not throw — report failures
  /// via ok=false.
  virtual TaskResultMsg run_lease(const TaskLeaseMsg& lease) = 0;
};

/// Serve loop bound to one transport. run() performs the registration
/// handshake, then alternates between heartbeats and lease execution until
/// the leader sends Shutdown or the connection drops.
class ExecutorWorker {
 public:
  /// `ship_telemetry` marks a worker that owns its process's ambient
  /// telemetry (executor_main): it delta-ships its MetricRegistry on each
  /// heartbeat and claims the tracer for this executor's identity (span-id
  /// base, process label, leader clock offset, log role). Loopback workers
  /// must leave it false — they share the leader's registry, and shipping it
  /// back would re-count leader metrics under an executor label.
  ExecutorWorker(Transport& transport, TrainService& service, std::string name,
                 bool ship_telemetry = false);

  /// Blocks until shutdown/disconnect. Safe to call from a thread-pool
  /// worker (loopback mode) or a process main() (unix/tcp mode).
  void run();

  std::uint64_t executor_id() const { return executor_id_; }
  std::uint64_t leases_served() const { return leases_served_; }

 private:
  void send_heartbeat();
  void adopt_executor_identity(const RegisterAckMsg& ack);

  Transport& transport_;
  TrainService& service_;
  std::string name_;
  bool ship_telemetry_ = false;
  std::uint64_t executor_id_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  std::uint64_t leases_served_ = 0;
  double heartbeat_interval_s_ = 0.5;
  obs::TelemetrySnapshotEncoder snapshot_encoder_;
  /// The lease being served, decoded in place: a fleet's leases share one
  /// shape, so after the first one a decode allocates nothing.
  TaskLeaseMsg lease_;
};

}  // namespace flint::rpc
