#include "flint/rpc/executor_worker.h"

#include <chrono>
#include <utility>

#include "flint/obs/telemetry.h"
#include "flint/util/check.h"
#include "flint/util/logging.h"

namespace flint::rpc {

namespace {

using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

constexpr double kRegisterAckTimeoutS = 30.0;

}  // namespace

ExecutorWorker::ExecutorWorker(Transport& transport, TrainService& service,
                               std::string name, bool ship_telemetry)
    : transport_(transport),
      service_(service),
      name_(std::move(name)),
      ship_telemetry_(ship_telemetry) {}

void ExecutorWorker::send_heartbeat() {
  HeartbeatMsg beat;
  beat.executor_id = executor_id_;
  beat.seq = ++heartbeat_seq_;
  beat.busy_leases = 0;  // the worker is synchronous: idle whenever it beats
  if (ship_telemetry_) {
    if (obs::Telemetry* t = obs::current(); t != nullptr && t->config().metrics_enabled) {
      obs::TelemetrySnapshot snapshot = snapshot_encoder_.encode(t->metrics());
      if (!snapshot.empty()) beat.telemetry = snapshot.serialize();
    }
  }
  transport_.send(Frame{MessageType::kHeartbeat, beat.serialize()});
}

void ExecutorWorker::adopt_executor_identity(const RegisterAckMsg& ack) {
  if (!ship_telemetry_) return;  // shared-process telemetry is the leader's
  std::string role = "executor-" + std::to_string(ack.executor_id);
  util::Logger::instance().set_role(role);
  obs::Telemetry* t = obs::current();
  if (t == nullptr) return;
  // Span-id base keeps leader- and executor-minted ids disjoint fleet-wide.
  t->tracer().set_span_id_base(ack.executor_id << 32);
  t->tracer().set_process_info(role, static_cast<int>(ack.executor_id));
  // Clock alignment (DESIGN.md §15): the ack's leader timestamp, sampled at
  // receipt, estimates this tracer's offset from the leader's wall clock
  // (within one-way transit time — plenty for trace readability).
  if (ack.leader_wall_us != 0.0)
    t->tracer().set_clock_offset_us(ack.leader_wall_us - t->tracer().wall_now_us());
}

void ExecutorWorker::run() {
  RegisterExecutorMsg reg;
  reg.name = name_;
  reg.slots = 1;
  bool sent = transport_.send(Frame{MessageType::kRegisterExecutor, reg.serialize()});
  FLINT_CHECK_MSG(sent, "leader hung up before registration");

  Frame frame;
  RecvStatus status = transport_.recv(frame, kRegisterAckTimeoutS);
  FLINT_CHECK_MSG(status == RecvStatus::kFrame, "no RegisterAck from leader");
  FLINT_CHECK_MSG(frame.type == MessageType::kRegisterAck,
                  "expected RegisterAck, got " << message_type_name(frame.type));
  RegisterAckMsg ack = RegisterAckMsg::deserialize(frame.payload);
  executor_id_ = ack.executor_id;
  heartbeat_interval_s_ = ack.heartbeat_interval_s;
  FLINT_CHECK_GT(heartbeat_interval_s_, 0.0);
  adopt_executor_identity(ack);
  service_.configure(ack);

  double last_beat_s = 0.0;  // force an immediate first beat
  for (;;) {
    double now = now_s();
    if (now - last_beat_s >= heartbeat_interval_s_) {
      send_heartbeat();
      last_beat_s = now;
    }
    double wait = heartbeat_interval_s_ - (now_s() - last_beat_s);
    if (wait < 0.0) wait = 0.0;
    status = transport_.recv(frame, wait);
    if (status == RecvStatus::kTimeout) continue;  // loop top sends the beat
    if (status == RecvStatus::kClosed) return;     // leader gone: exit quietly
    switch (frame.type) {
      case MessageType::kTaskLease: {
        TaskLeaseMsg lease = TaskLeaseMsg::deserialize(frame.payload);
        TaskResultMsg result;
        {
          // Child span under the leader's dispatch span; the braces close it
          // before the result ships so its duration covers exactly the local
          // training work.
          obs::RpcSpanGuard span("rpc.lease_execute", "rpc",
                                 obs::SpanContext{lease.trace_id, lease.parent_span_id});
          result = service_.run_lease(lease);
          result.trace_id = span.context().trace_id;
          result.span_id = span.context().span_id;
        }
        result.lease_id = lease.lease_id;
        result.task_id = lease.task_id;
        result.executor_id = executor_id_;
        if (!transport_.send(Frame{MessageType::kTaskResult, result.serialize()})) return;
        ++leases_served_;
        obs::add_counter("rpc.leases_served");
        // Executing a long lease may have eaten the heartbeat budget; beat
        // if it did, but never per-lease — a burst of fast leases would turn
        // into a snapshot per result and dominate the wire. The result frame
        // itself is proof of life (the leader refreshes the deadline on any
        // frame), so rate-limiting only delays telemetry deltas.
        if (now_s() - last_beat_s >= heartbeat_interval_s_) {
          send_heartbeat();
          last_beat_s = now_s();
        }
        break;
      }
      case MessageType::kHeartbeat:
        // The leader is collecting metrics (Leader::collect_telemetry):
        // ship this executor's deltas now.
        send_heartbeat();
        last_beat_s = now_s();
        break;
      case MessageType::kShutdown:
        return;
      default:
        FLINT_CHECK_MSG(false, "executor received unexpected "
                                   << message_type_name(frame.type));
    }
  }
}

}  // namespace flint::rpc
