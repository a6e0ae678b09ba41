#include "workloads.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "flint/data/synthetic_tasks.h"
#include "flint/device/availability.h"
#include "flint/device/device_catalog.h"
#include "flint/device/session_generator.h"
#include "flint/device/session_io.h"
#include "flint/device/session_stream.h"
#include "flint/fl/fedavg.h"
#include "flint/fl/fedbuff.h"
#include "flint/fl/trainer.h"
#include "flint/ml/kernels/kernels.h"
#include "flint/ml/serialize.h"
#include "flint/net/bandwidth_model.h"
#include "flint/obs/telemetry.h"
#include "flint/rpc/frame.h"
#include "flint/rpc/leader.h"
#include "flint/rpc/process.h"
#include "flint/rpc/transport.h"
#include "flint/store/checkpoint.h"
#include "flint/util/bytes.h"
#include "flint/util/stats.h"
#include "cpus.h"

namespace perfbench {

const char* mode_name(RepMode mode) {
  switch (mode) {
    case RepMode::kPlain: return "plain";
    case RepMode::kTraced: return "traced";
    case RepMode::kTelemetry: return "telemetry";
  }
  return "?";
}

double peak_rss_mib(const std::string& status_path) {
  std::ifstream status(status_path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

namespace {

using namespace flint;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// --- The model-full task shared by fedbuff_train and fedavg_fleet. ---------
// table3's model-full section: the ads MLP (16 -> 32 -> 16 -> 1), 400 clients
// with ~200 records each (σ 150, at most 2,000) and 3 local epochs, so one
// client update is ~1 ms of real local SGD on average, with stragglers.
constexpr std::size_t kTaskClients = 400;
constexpr double kTaskStdRecords = 150.0;
constexpr std::size_t kTrainerThreads = 2;
constexpr std::uint64_t kEvalAndCheckpointEvery = 10;

struct TaskInputs {
  std::optional<device::DeviceCatalog> catalog;
  net::PufferLikeBandwidthModel bandwidth;
  device::AvailabilityTrace trace;
  data::FederatedTask task;
  std::unique_ptr<ml::Model> model;
};

/// Catalog, a materialized 14-day availability trace of `clients` clients,
/// the federated task and the initial model, each under its layer's span.
std::unique_ptr<TaskInputs> make_task_inputs(std::uint64_t seed, std::size_t clients,
                                             double std_records, SpanRecorder& rec,
                                             Counters& counters) {
  auto in = std::make_unique<TaskInputs>();
  util::Rng rng(seed);
  {
    ScopedSpan span(rec, "device.catalog");
    in->catalog.emplace(device::DeviceCatalog::standard());
  }
  device::SessionLog log;
  {
    ScopedSpan span(rec, "device.trace_gen");
    device::SessionGeneratorConfig cfg;
    cfg.clients = clients;
    cfg.days = 14;
    log = device::generate_sessions(cfg, *in->catalog, rng);
  }
  {
    ScopedSpan span(rec, "device.availability");
    device::AvailabilityCriteria criteria;
    criteria.require_wifi = true;
    criteria.min_session_s = 60.0;
    in->trace = device::build_availability(log, criteria, *in->catalog);
  }
  {
    ScopedSpan span(rec, "data.task_gen");
    data::SyntheticTaskConfig cfg;
    cfg.domain = data::Domain::kAds;
    cfg.clients = clients;
    cfg.mean_records = 200;
    cfg.std_records = std_records;
    cfg.max_records = 2000;
    cfg.dense_dim = 16;
    cfg.test_examples = 3000;
    in->task = data::make_synthetic_task(cfg, rng);
  }
  {
    ScopedSpan span(rec, "ml.model_init");
    in->model = in->task.make_model(rng);
  }
  counters["device.sessions"] = static_cast<double>(log.sessions.size());
  counters["data.train_examples"] = static_cast<double>(in->task.train.example_count());
  return in;
}

fl::RunInputs task_run_inputs(const TaskInputs& in, std::uint64_t seed) {
  fl::RunInputs r;
  r.threads = kTrainerThreads;
  r.dataset = &in.task.train;
  r.dense_dim = in.task.batch_dense_dim();
  r.model_template = in.model.get();
  r.trace = &in.trace;
  r.catalog = &*in.catalog;
  r.bandwidth = &in.bandwidth;
  r.test = &in.task.test;
  r.domain = in.task.config.domain;
  r.local.loss = in.task.loss_kind();
  r.local.epochs = 3;
  r.duration.base_time_per_example_s = 61.81 / 5000.0;
  r.eval_every_rounds = kEvalAndCheckpointEvery;
  r.leader.checkpoint_every_rounds = kEvalAndCheckpointEvery;
  r.seed = seed;
  return r;
}

/// A checkpoint store in its own directory under the working directory,
/// removed with the object.
class ScratchStore {
 public:
  explicit ScratchStore(const std::string& dir) : dir_(dir), store_(dir) {}
  ~ScratchStore() {
    std::error_code ec;  // best effort: never throw from a destructor
    fs::remove_all(dir_, ec);
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;

  store::CheckpointStore& store() { return store_; }

 private:
  std::string dir_;
  store::CheckpointStore store_;
};

/// Run one repetition of `runner` on `inputs`: installs the program's
/// telemetry in kTelemetry mode, times the call, and in traced mode opens the
/// fl.run span and samples each round's wall time through the round hook.
template <class Runner>
void timed_run(fl::RunInputs& inputs, RepMode mode, SpanRecorder& rec, RepResult& rep,
               Runner&& runner) {
  std::optional<obs::Telemetry> telemetry;
  if (mode == RepMode::kTelemetry) {
    obs::TelemetryConfig tc;
    tc.metrics_enabled = true;
    tc.tracing_enabled = false;
    telemetry.emplace(tc);
    inputs.telemetry = &*telemetry;
  }
  double round_start = 0.0;
  if (rec.enabled()) {
    inputs.round_hook = [&](std::uint64_t) {
      double now = rec.now();
      rep.round_ms.push_back((now - round_start) * 1e3);
      rec.add("fl.round", round_start, now, /*track=*/1);
      round_start = now;
    };
  }
  std::optional<fl::RunResult> ran;
  {
    ScopedSpan span(rec, "fl.run");
    rep.run_span = span.id();
    if (rec.enabled()) round_start = rec.now();
    auto start = Clock::now();
    ran.emplace(runner());
    rep.run_s = seconds_since(start);
  }
  const fl::RunResult& result = *ran;
  rep.updates = result.metrics.updates_aggregated();
  rep.rounds = result.rounds;
  rep.tasks = result.metrics.tasks_started();
  rep.events = result.events_executed;
  rep.final_metric = result.final_metric;
  rep.param_hash = fnv1a(result.final_parameters);
}

/// FedBuff's SimMetrics invariants: every round aggregates exactly one full
/// buffer, every aggregated update came from a started task, and the final
/// metric is finite.
std::string check_fedbuff(const RepResult& rep, std::uint64_t max_rounds, std::size_t buffer) {
  std::ostringstream why;
  if (rep.rounds != max_rounds) why << "ran " << rep.rounds << " of " << max_rounds << " rounds; ";
  if (rep.updates != rep.rounds * buffer)
    why << "updates " << rep.updates << " != rounds x buffer " << rep.rounds * buffer << "; ";
  if (rep.tasks < rep.updates) why << "tasks " << rep.tasks << " < updates; ";
  if (!std::isfinite(rep.final_metric)) why << "final metric is not finite; ";
  return why.str();
}

/// Training, evaluation and checkpoint probes on the task's own inputs.
void probe_task(const TaskInputs& in, const fl::RunInputs& run_inputs,
                store::CheckpointStore* newest, SpanRecorder& rec, Counters& counters) {
  constexpr int kPasses = 5;
  // A fixed sample of the run's clients: the first eight in dataset order.
  const auto& clients = in.task.train.clients();
  const std::size_t sample = std::min<std::size_t>(8, clients.size());
  std::size_t examples = 0;
  for (std::size_t i = 0; i < sample; ++i) examples += clients[i].examples.size();
  fl::LocalTrainer trainer(in.model->clone(), in.task.batch_dense_dim());
  std::vector<float> params = in.model->get_flat_parameters();
  std::vector<double> train_s;
  for (int pass = 0; pass < kPasses; ++pass) {
    ScopedSpan span(rec, "ml.train_probe");
    auto start = Clock::now();
    for (std::size_t i = 0; i < sample; ++i)
      trainer.train(clients[i].examples, params, run_inputs.local);
    train_s.push_back(seconds_since(start));
  }
  double processed = static_cast<double>(examples) * run_inputs.local.epochs;
  counters["ml.train_us_per_example"] =
      processed > 0 ? util::median(train_s) * 1e6 / processed : 0.0;

  auto eval_model = in.model->clone();
  std::vector<double> eval_s;
  for (int pass = 0; pass < kPasses; ++pass) {
    ScopedSpan span(rec, "ml.eval_probe");
    auto start = Clock::now();
    data::evaluate_examples(*eval_model, in.task.test, in.task.config.domain,
                            in.task.batch_dense_dim());
    eval_s.push_back(seconds_since(start));
  }
  counters["ml.eval_ms"] = util::median(eval_s) * 1e3;

  if (newest == nullptr) return;
  counters["store.checkpoints"] = static_cast<double>(newest->checkpoint_count());
  std::optional<store::SimCheckpoint> checkpoint;
  std::vector<double> load_s;
  for (int pass = 0; pass < kPasses; ++pass) {
    ScopedSpan span(rec, "store.load");
    auto start = Clock::now();
    checkpoint = newest->latest();
    load_s.push_back(seconds_since(start));
  }
  if (!checkpoint.has_value()) throw std::runtime_error("the run left no readable checkpoint");
  counters["store.load_ms"] = util::median(load_s) * 1e3;
  counters["store.checkpoint_bytes"] =
      static_cast<double>(store::serialize_checkpoint(*checkpoint).size());
  ScratchStore scratch("ckpt-probe");
  std::vector<double> save_s;
  for (int pass = 0; pass < kPasses; ++pass) {
    ScopedSpan span(rec, "store.save");
    auto start = Clock::now();
    scratch.store().write(*checkpoint);
    save_s.push_back(seconds_since(start));
  }
  counters["store.save_ms"] = util::median(save_s) * 1e3;
}

// --- fedbuff_train ----------------------------------------------------------

class FedBuffTrain final : public Workload {
 public:
  explicit FedBuffTrain(const WorkloadContext& ctx) : seed_(ctx.seed), rec_(*ctx.recorder) {}

  void setup() override {
    inputs_ = make_task_inputs(seed_, kTaskClients, kTaskStdRecords, rec_, counters_);
  }
  void reset() override {
    newest_.reset();
    inputs_.reset();
  }
  std::uint64_t planned_updates() const override { return kRounds * kBuffer; }

  RepResult run(RepMode mode) override {
    RepResult rep;
    rep.mode = mode;
    fl::AsyncConfig cfg;
    cfg.inputs = task_run_inputs(*inputs_, seed_);
    cfg.inputs.max_rounds = kRounds;
    cfg.buffer_size = kBuffer;
    cfg.max_concurrency = 32;
    auto checkpoints = std::make_unique<ScratchStore>("ckpt-" + std::to_string(reps_++));
    cfg.inputs.leader.checkpoint_store = &checkpoints->store();
    timed_run(cfg.inputs, mode, rec_, rep, [&] { return fl::run_fedbuff(cfg); });
    rep.error = check_fedbuff(rep, kRounds, kBuffer);
    newest_ = std::move(checkpoints);
    return rep;
  }

  void probe() override {
    probe_task(*inputs_, task_run_inputs(*inputs_, seed_),
               newest_ ? &newest_->store() : nullptr, rec_, counters_);
  }

 private:
  static constexpr std::uint64_t kRounds = 300;
  static constexpr std::size_t kBuffer = 10;

  std::uint64_t seed_;
  SpanRecorder& rec_;
  std::unique_ptr<TaskInputs> inputs_;
  std::unique_ptr<ScratchStore> newest_;  ///< the latest repetition's checkpoints
  int reps_ = 0;
};

// --- population_stream -----------------------------------------------------

/// Times each window the scheduler pulls (traced repetitions only).
class MeteredWindowStream final : public device::WindowStream {
 public:
  MeteredWindowStream(device::WindowStream& inner, SpanRecorder& rec) : inner_(inner), rec_(rec) {}

  std::optional<device::AvailabilityWindow> next() override {
    if (!rec_.enabled()) return inner_.next();
    double start = rec_.now();
    auto window = inner_.next();
    rec_.add("device.window_next", start, rec_.now());
    return window;
  }

 private:
  device::WindowStream& inner_;
  SpanRecorder& rec_;
};

/// bench_scale's settings: model-free FedBuff (buffer 64, concurrency 256)
/// over a spilled-and-merged session stream of 1M clients and 2 days. A
/// stream is exhausted by one run, so every repetition generates and spills
/// its own (identical) trace, and that is its set-up. 12,000 rounds, about
/// two thirds of what the trace supports, make the run ~4 s, as long as the
/// set-up, though per-client state then grows peak memory well past
/// bench_scale's 200-round figure.
class PopulationStream final : public Workload {
 public:
  explicit PopulationStream(const WorkloadContext& ctx) : seed_(ctx.seed), rec_(*ctx.recorder) {
    criteria_.require_wifi = true;
    criteria_.min_session_s = 60.0;
  }

  int setup_rounds() const override { return 1; }
  std::uint64_t planned_updates() const override { return kRounds * kBuffer; }

  void setup() override {
    auto start = Clock::now();
    ScopedSpan span(rec_, "device.catalog");
    catalog_.emplace(device::DeviceCatalog::standard());
    catalog_s_ = seconds_since(start);
    fs::create_directories(kSpillDir);
  }

  RepResult run(RepMode mode) override {
    RepResult rep;
    rep.mode = mode;
    device::SessionStreamConfig stream_cfg;
    stream_cfg.generator.clients = kClients;
    stream_cfg.generator.days = 2;
    stream_cfg.generator.sessions_per_day = 1.5;
    stream_cfg.clients_per_chunk = 16'384;
    stream_cfg.spill_dir = kSpillDir;
    util::Rng rng(seed_);
    auto start = Clock::now();
    std::unique_ptr<device::SessionStream> sessions;
    {
      ScopedSpan span(rec_, "device.trace_gen");
      sessions = device::make_session_stream(stream_cfg, *catalog_, rng);
    }
    rep.setup_s = catalog_s_ + seconds_since(start);
    if (rec_.enabled()) count_spill(rep.counters);

    device::SessionWindowStream windows(*sessions, criteria_, *catalog_);
    MeteredWindowStream metered(windows, rec_);
    fl::AsyncConfig cfg;
    cfg.inputs.model_free = true;
    // |D_k| as a pure function of client id: nothing per-client materializes.
    cfg.inputs.example_count_fn = [](std::uint64_t c) { return std::size_t{50} + c % 100; };
    cfg.inputs.window_stream = &metered;
    cfg.inputs.catalog = &*catalog_;
    cfg.inputs.bandwidth = &bandwidth_;
    cfg.inputs.duration.base_time_per_example_s = 0.02;
    cfg.inputs.duration.update_bytes = 1'000'000;
    cfg.inputs.reparticipation_gap_s = 6.0 * 3600.0;
    cfg.inputs.max_rounds = kRounds;
    cfg.inputs.seed = seed_;
    cfg.buffer_size = kBuffer;
    cfg.max_concurrency = 256;
    cfg.max_staleness = 100;
    timed_run(cfg.inputs, mode, rec_, rep, [&] { return fl::run_fedbuff(cfg); });
    rep.error = check_fedbuff(rep, kRounds, kBuffer);
    return rep;
  }

 private:
  static constexpr std::size_t kClients = 1'000'000;
  static constexpr std::uint64_t kRounds = 12000;
  static constexpr std::size_t kBuffer = 64;
  static constexpr const char* kSpillDir = "spill";

  /// Sessions and bytes the stream spilled (read back from the chunk files).
  static void count_spill(Counters& counters) {
    double bytes = 0.0;
    double sessions = 0.0;
    for (const auto& entry : fs::recursive_directory_iterator(kSpillDir)) {
      if (!entry.is_regular_file()) continue;
      bytes += static_cast<double>(entry.file_size());
      sessions += static_cast<double>(
          device::SessionChunkReader(entry.path().string(), /*buffer_sessions=*/1).count());
    }
    counters["device.spill_bytes"] = bytes;
    counters["device.sessions"] = sessions;
  }

  std::uint64_t seed_;
  SpanRecorder& rec_;
  std::optional<device::DeviceCatalog> catalog_;
  double catalog_s_ = 0.0;
  net::PufferLikeBandwidthModel bandwidth_;
  device::AvailabilityCriteria criteria_;
};

// --- fedavg_fleet -----------------------------------------------------------

/// Wire accounting shared by the fleet's transports. Bytes are whole frames
/// (header, payload, CRC) of TaskLease and TaskResult messages; heartbeats
/// are counted but not charged, since their number depends on wall time.
struct RpcMeter {
  std::uint64_t leases = 0;
  std::uint64_t lease_bytes = 0;
  std::uint64_t results = 0;
  std::uint64_t result_bytes = 0;
  std::uint64_t heartbeats = 0;
  std::unordered_map<std::uint64_t, double> sent_at;  ///< lease id -> send start (traced)

  void reset() { *this = RpcMeter{}; }
};

std::uint64_t wire_bytes(const rpc::Frame& frame) {
  return rpc::kFrameHeaderBytes + frame.payload.size() + rpc::kFrameTrailerBytes;
}

/// The lease id of a TaskLease or TaskResult frame, read without decoding the
/// rest of the payload (parameters, examples, delta): both messages open with
/// a u16 schema version followed by the u64 lease id.
std::uint64_t lease_id_of(const rpc::Frame& frame) {
  std::size_t offset = sizeof(std::uint16_t);
  return util::read_pod<std::uint64_t>(frame.payload, offset);
}

/// Counts lease traffic always; in traced repetitions also times every send
/// and receive and pairs each lease with its result into an rpc.lease span.
class MeteredTransport final : public rpc::Transport {
 public:
  MeteredTransport(std::unique_ptr<rpc::Transport> inner, RpcMeter& meter, SpanRecorder& rec)
      : inner_(std::move(inner)), meter_(meter), rec_(rec) {}

  bool send(const rpc::Frame& frame) override {
    const bool lease = frame.type == rpc::MessageType::kTaskLease;
    if (lease) {
      ++meter_.leases;
      meter_.lease_bytes += wire_bytes(frame);
    }
    if (!rec_.enabled()) return inner_->send(frame);
    double start = rec_.now();
    bool ok = inner_->send(frame);
    rec_.add("rpc.send", start, rec_.now());
    if (lease) meter_.sent_at[lease_id_of(frame)] = start;
    return ok;
  }

  rpc::RecvStatus recv(rpc::Frame& out, double timeout_s) override {
    const bool timed = rec_.enabled();
    double start = timed ? rec_.now() : 0.0;
    rpc::RecvStatus status = inner_->recv(out, timeout_s);
    double end = timed ? rec_.now() : 0.0;
    if (timed) rec_.add("rpc.recv", start, end);
    if (status != rpc::RecvStatus::kFrame) return status;
    if (out.type == rpc::MessageType::kHeartbeat) {
      ++meter_.heartbeats;
    } else if (out.type == rpc::MessageType::kTaskResult) {
      ++meter_.results;
      meter_.result_bytes += wire_bytes(out);
      if (timed) {
        auto it = meter_.sent_at.find(lease_id_of(out));
        if (it != meter_.sent_at.end()) {
          rec_.add("rpc.lease", it->second, end, /*track=*/1);
          meter_.sent_at.erase(it);
        }
      }
    }
    return status;
  }

  void close() override { inner_->close(); }
  const char* kind() const override { return inner_->kind(); }

 private:
  std::unique_ptr<rpc::Transport> inner_;
  RpcMeter& meter_;
  SpanRecorder& rec_;
};

/// Sync FedAvg with fedbuff_train's model and local training, with every
/// client update leased over a Unix socket to two flint_executor processes.
/// The benchmark builds the fleet itself so it can meter the leader's
/// transports.
///
/// Whether a round's last lease stalls the leader for a 50 ms pump slice is
/// a race. With cohorts of 10 a stall was several times a round's work, and
/// runs in which the race went one way or the other differed by up to 2x.
/// Two choices keep the stall visible (rpc.idle_frac, the lease RTT tail)
/// without letting it decide the run's throughput:
/// - A cohort of 50 over 1,200 clients fills ~42 places a round (400 clients
///   filled ~21), so a stall is smaller against a round's work. Rounds stay
///   far below the size at which the fleet hangs: with cohorts of 150 (~75
///   leases per executor) the first round never finished, as the leader
///   blocks sending leases to an executor that is itself blocked on results
///   the leader has not read yet.
/// - Clients hold ~200 records each with σ 4, not table3's σ 150. With
///   σ 150 the seed decided each lease's work and so, round after round,
///   which executor finished last; seeds then differed by 20% in throughput.
class FedAvgFleet final : public Workload {
 public:
  explicit FedAvgFleet(const WorkloadContext& ctx)
      : seed_(ctx.seed), rec_(*ctx.recorder), executor_bin_(ctx.executor_bin) {
    if (executor_bin_.empty()) throw std::invalid_argument("fedavg_fleet needs --executor");
  }

  void setup() override {
    inputs_ = make_task_inputs(seed_, kClients, kStdRecords, rec_, counters_);
    ScopedSpan span(rec_, "rpc.fleet_setup");
    rpc::LeaderConfig lc;
    lc.dense_dim = inputs_->task.batch_dense_dim();
    lc.model_blob = ml::serialize_model(*inputs_->model);
    leader_ = std::make_unique<rpc::Leader>(std::move(lc));
    // A relative path: the driver runs in its own scratch directory, and an
    // absolute one could exceed the 108-byte sun_path limit.
    rpc::Listener listener = rpc::Listener::listen_unix("fleet.sock");
    for (std::size_t i = 0; i < kExecutors; ++i) {
      // The leader's resolved kernel spec goes to every executor, so the
      // fleet computes on one kernel path, as bit-identity requires.
      processes_.push_back(std::make_unique<rpc::SpawnedProcess>(std::vector<std::string>{
          executor_bin_, "--connect-unix", "fleet.sock", "--name", "unix-" + std::to_string(i),
          "--kernels", ml::kernels::requested_spec()}));
    }
    for (std::size_t i = 0; i < kExecutors; ++i) {
      auto transport = listener.accept(kAcceptTimeoutS);
      if (transport == nullptr) throw std::runtime_error("an executor never connected");
      leader_->add_transport(
          std::make_unique<MeteredTransport>(std::move(transport), meter_, rec_));
    }
    rotate_fleet();
  }

  void reset() override {
    ScopedSpan span(rec_, "rpc.fleet_shutdown");
    rotation_.reset();
    newest_.reset();
    leader_.reset();      // sends Shutdown and closes the transports
    processes_.clear();   // reaps the executors
    inputs_.reset();
  }

  std::uint64_t planned_updates() const override { return kRounds * kCohort; }

  RepResult run(RepMode mode) override {
    RepResult rep;
    rep.mode = mode;
    fl::SyncConfig cfg = sync_config();
    cfg.inputs.rpc_leader = leader_.get();
    auto checkpoints = std::make_unique<ScratchStore>("ckpt-" + std::to_string(reps_++));
    cfg.inputs.leader.checkpoint_store = &checkpoints->store();
    meter_.reset();
    timed_run(cfg.inputs, mode, rec_, rep, [&] { return fl::run_fedavg(cfg); });
    rep.counters["rpc.leases"] = static_cast<double>(meter_.leases);
    rep.counters["rpc.lease_bytes"] = static_cast<double>(meter_.lease_bytes);
    rep.counters["rpc.results"] = static_cast<double>(meter_.results);
    rep.counters["rpc.result_bytes"] = static_cast<double>(meter_.result_bytes);
    rep.counters["rpc.heartbeats"] = static_cast<double>(meter_.heartbeats);
    std::ostringstream why;
    if (rep.rounds != kRounds) why << "ran " << rep.rounds << " of " << kRounds << " rounds; ";
    if (rep.updates == 0 || rep.updates > rep.rounds * kCohort)
      why << "updates " << rep.updates << " outside (0, rounds x cohort]; ";
    if (meter_.results < rep.updates) why << "fewer lease results than updates; ";
    if (!std::isfinite(rep.final_metric)) why << "final metric is not finite; ";
    rep.error = why.str();
    newest_ = std::move(checkpoints);
    return rep;
  }

  /// DESIGN.md §14's contract: the fleet's final parameters and final metric
  /// are bit-identical to an in-process run of the same seed.
  std::string verify(const RepResult& fleet) override {
    ScopedSpan span(rec_, "fl.reference_run");
    ScratchStore checkpoints("ckpt-reference");
    fl::SyncConfig cfg = sync_config();
    cfg.inputs.leader.checkpoint_store = &checkpoints.store();
    fl::RunResult ref = fl::run_fedavg(cfg);
    std::ostringstream why;
    if (fnv1a(ref.final_parameters) != fleet.param_hash)
      why << "final parameters differ from the in-process run; ";
    if (std::memcmp(&ref.final_metric, &fleet.final_metric, sizeof(double)) != 0)
      why << "final metric " << fleet.final_metric << " != in-process " << ref.final_metric << "; ";
    if (ref.metrics.updates_aggregated() != fleet.updates)
      why << "updates differ from the in-process run; ";
    return why.str();
  }

  void probe() override {
    probe_task(*inputs_, sync_config().inputs, newest_ ? &newest_->store() : nullptr, rec_,
               counters_);
  }

  bool rotate_cpus() const override { return false; }  // rotate_fleet() instead

  double helper_peak_rss_mib() override {
    double total = 0.0;
    for (const auto& p : processes_)
      if (p->running()) total += peak_rss_mib("/proc/" + std::to_string(p->pid()) + "/status");
    return total;
  }

 private:
  static constexpr std::size_t kExecutors = 2;
  static constexpr std::size_t kClients = 1'200;
  static constexpr double kStdRecords = 4.0;
  static constexpr std::uint64_t kRounds = 30;
  static constexpr std::size_t kCohort = 50;
  static constexpr double kAcceptTimeoutS = 20.0;

  /// Give the leader (this process: its thread and the trainer threads that
  /// evaluate) two CPUs and each executor one of its own, and rotate that
  /// layout over the CPUs. Left to the OS, placement decides which executor
  /// is slower for a whole process, and with it how often the leader's 50 ms
  /// pump slice stalls a round, so throughput flips between two modes from
  /// run to run; pinned for good, it would inherit its cores' luck.
  void rotate_fleet() {
    if (usable_cpus().size() < 2 + kExecutors) return;
    std::vector<CpuRotation::Member> members = {{0, 2}};
    for (const auto& p : processes_) members.push_back({p->pid(), 1});
    rotation_.emplace(std::move(members));
  }

  fl::SyncConfig sync_config() const {
    fl::SyncConfig cfg;
    cfg.inputs = task_run_inputs(*inputs_, seed_);
    cfg.inputs.max_rounds = kRounds;
    cfg.cohort_size = kCohort;
    cfg.overcommit = 1.3;
    return cfg;
  }

  std::uint64_t seed_;
  SpanRecorder& rec_;
  std::string executor_bin_;
  std::unique_ptr<TaskInputs> inputs_;
  // Destruction runs bottom-up: the leader closes its transports (which use
  // the meter) before the executors are reaped.
  RpcMeter meter_;
  std::vector<std::unique_ptr<rpc::SpawnedProcess>> processes_;
  std::unique_ptr<rpc::Leader> leader_;
  std::unique_ptr<ScratchStore> newest_;
  int reps_ = 0;
  std::optional<CpuRotation> rotation_;  ///< ends before the executors are reaped
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadContext& context) {
  if (name == "fedbuff_train") return std::make_unique<FedBuffTrain>(context);
  if (name == "population_stream") return std::make_unique<PopulationStream>(context);
  if (name == "fedavg_fleet") return std::make_unique<FedAvgFleet>(context);
  return nullptr;
}

}  // namespace perfbench
