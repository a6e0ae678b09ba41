// rpc::Leader — the simulation side of the leader/executor runtime.
//
// The leader is *synchronous*: it owns every transport and is driven entirely
// from the simulation thread (submit() dispatches, wait() pumps). No
// background thread exists, so the simulation's deterministic-reduction
// contract is untouched — the leader is just a different way to evaluate the
// same pure function.
//
// Fault model (DESIGN.md §14): an executor is *lost* when its connection
// closes (SIGKILL'd child: the kernel sends EOF) or when it misses its
// heartbeat deadline (hung child). Losing an executor re-dispatches its
// outstanding leases to surviving executors in ascending lease-id order
// ("stamp order"). Because a lease is self-contained and
// compute_client_update is a pure function of it, the re-computed result is
// byte-identical to what the dead executor would have produced — which is
// why a mid-round SIGKILL leaves the run artifact bit-identical to loopback.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flint/obs/telemetry_snapshot.h"
#include "flint/rpc/messages.h"
#include "flint/rpc/transport.h"

namespace flint::rpc {

struct LeaderConfig {
  double heartbeat_interval_s = 0.5;  ///< cadence executors beat at
  double heartbeat_timeout_s = 10.0;  ///< miss deadline: executor declared dead
  double lease_timeout_s = 120.0;     ///< result deadline: lease re-dispatched
  double register_timeout_s = 30.0;   ///< wait_for_executors gives up after this
  std::uint64_t dense_dim = 0;        ///< run context for RegisterAck
  std::vector<char> model_blob;       ///< ml::serialize_model output ("" = model-free)
};

class Leader {
 public:
  explicit Leader(LeaderConfig config);
  ~Leader();
  Leader(const Leader&) = delete;
  Leader& operator=(const Leader&) = delete;

  /// Adopt an already-connected transport (loopback pairs): performs the
  /// Register/Ack handshake and adds the executor to the pool.
  void add_transport(std::unique_ptr<Transport> transport);

  /// Accept executor connections on this listener (wait_for_executors pumps
  /// it). At most one listener.
  void add_listener(Listener listener);

  /// Block until `n` executors are registered (throws CheckError after
  /// register_timeout_s).
  void wait_for_executors(std::size_t n);

  /// Dispatch one lease to the next executor (round-robin over alive
  /// executors, ascending id). Fills lease.lease_id; returns it.
  std::uint64_t submit(TaskLeaseMsg lease);

  /// Block until `lease_id` has a result, pumping heartbeats, detecting
  /// lost executors, and re-dispatching as needed. Throws CheckError if the
  /// remote reported a failure or every executor died.
  TaskResultMsg wait(std::uint64_t lease_id);

  /// Ask every live executor for a heartbeat now and wait (at most
  /// heartbeat_timeout_s) until each has answered, so that its metric deltas
  /// up to this point are merged (DESIGN.md §15.2). An executor handles
  /// frames in order, so its answer also covers every lease sent before.
  /// No-op unless ambient metrics are on.
  void collect_telemetry();

  std::size_t alive_executors() const;

  /// Bound TCP port of the listener (0 when there is none / it is Unix).
  std::uint16_t listen_port() const;

  /// Send Shutdown to every live executor and close all transports.
  void shutdown(const std::string& reason);

  const LeaderConfig& config() const { return config_; }

 private:
  struct ExecutorState;
  struct LeaseState;

  /// Drain every live transport without blocking; then, only if lease
  /// `awaited` is still outstanding, block for one slice on the executor
  /// holding it. Runs deadline checks and the status tick on every call.
  void pump(std::uint64_t awaited);
  void handle_frame(std::uint64_t executor_id, const Frame& frame);
  void check_deadlines();
  void lose_executor(std::uint64_t executor_id, const char* why);
  void dispatch(std::uint64_t lease_id);
  std::uint64_t pick_executor();
  void update_fleet_gauges(std::uint64_t executor_id);

  LeaderConfig config_;
  std::unique_ptr<Listener> listener_;
  // std::map (not unordered): dispatch and re-dispatch iterate these, and
  // iteration order must be deterministic.
  std::map<std::uint64_t, ExecutorState> executors_;
  std::map<std::uint64_t, LeaseState> leases_;
  std::uint64_t next_executor_id_ = 1;
  std::uint64_t next_lease_id_ = 1;
  std::uint64_t rr_last_ = 0;  ///< executor id that got the previous dispatch
  bool shut_down_ = false;
  /// The frame every pump receives into, kept so each decode reuses its
  /// payload's capacity.
  Frame inbound_;
  /// Folds heartbeat-carried executor snapshots into the ambient registry
  /// under `name{executor=N}` labels (DESIGN.md §15).
  obs::TelemetrySnapshotMerger telemetry_merger_;
};

}  // namespace flint::rpc
