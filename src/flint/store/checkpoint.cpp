#include "flint/store/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "flint/obs/telemetry.h"
#include "flint/util/bytes.h"
#include "flint/util/check.h"
#include "flint/util/crc32.h"
#include "flint/util/logging.h"

namespace flint::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'F', 'C', 'K', 'P'};
constexpr std::uint32_t kFormatVersion = 2;
// magic + u32 version + u64 payload size + u32 payload CRC.
constexpr std::size_t kPayloadSizeOffset = 4 + 4;
constexpr std::size_t kPayloadCrcOffset = kPayloadSizeOffset + 8;
constexpr std::size_t kHeaderSize = kPayloadCrcOffset + 4;

std::int64_t seq_of(const fs::path& path) {
  // "ckpt_<seq>" -> seq, or -1 if the name doesn't match. 64-bit: a
  // long-running job's sequence numbers overflow int.
  std::string stem = path.stem().string();
  if (stem.rfind("ckpt_", 0) != 0) return -1;
  try {
    std::size_t consumed = 0;
    std::int64_t seq = std::stoll(stem.substr(5), &consumed);
    if (consumed != stem.size() - 5) return -1;
    return seq;
  } catch (const std::exception&) {
    return -1;
  }
}

// --- payload walk ------------------------------------------------------------
// Every variable-length field is a u64 count followed by its elements. The
// minimum record sizes below let the reader bound each count by the bytes
// left before it allocates.

constexpr util::Count<std::uint64_t> kCount{};
constexpr std::size_t kRoundRecordBytes = 5 * 8;
constexpr std::size_t kWriteRecordBytes = 2 * 8;
constexpr std::size_t kRequeuedBytes = 4 * 8;
constexpr std::size_t kParticipationBytes = 2 * 8;
constexpr std::size_t kEvalPointBytes = 4 * 8;
constexpr std::size_t kClientAccountBytes = 9 * 8;
// 14 eight-byte fields, the interrupted flag and the delta's count.
constexpr std::size_t kInFlightMinBytes = 14 * 8 + 1 + 8;

template <typename IO, util::RecordOf<CheckpointMetrics> M>
void walk(IO& io, M& m) {
  io.field(m.tasks_started);
  io.field(m.tasks_succeeded);
  io.field(m.tasks_interrupted);
  io.field(m.tasks_stale);
  io.field(m.tasks_failed);
  io.field(m.updates_aggregated);
  io.field(m.client_compute_s);
  io.records(m.rounds, kCount, kRoundRecordBytes, [](auto& io, auto& r) {
    io.field(r.round);
    io.field(r.start);
    io.field(r.end);
    io.field(r.updates_aggregated);
    io.field(r.mean_staleness);
  });
  io.records(m.checkpoints, kCount, kWriteRecordBytes, [](auto& io, auto& c) {
    io.field(c.round);
    io.field(c.time);
  });
}

template <typename IO, util::RecordOf<CheckpointInFlightTask> T>
void walk(IO& io, T& t) {
  io.field(t.task_id);
  io.field(t.client_id);
  io.field(t.device_index);
  io.field(t.model_version);
  io.field(t.dispatch_time);
  io.field(t.compute_s);
  io.field(t.comm_s);
  io.field(t.examples);
  io.field(t.update_bytes);
  io.field(t.spent_compute_s);
  io.field(t.window_end);
  io.field(t.finish_time);
  io.field(t.interrupted);
  io.field(t.stamp);
  io.field(t.update_weight);
  io.vector(t.update_delta, kCount);
}

template <typename IO, util::RecordOf<CheckpointFedBuff> F>
void walk(IO& io, F& fb) {
  io.vector(fb.accumulator_sum, kCount);
  io.field(fb.accumulator_weight_sum);
  io.field(fb.accumulator_count);
  io.field(fb.staleness_sum);
  io.field(fb.round_start);
  io.field(fb.last_aggregation_time);
  io.field(fb.pump_scheduled);
  io.field(fb.pump_time);
  io.field(fb.pump_stamp);
  io.field(fb.next_stamp);
  io.records(fb.in_flight, kCount, kInFlightMinBytes, [](auto& io, auto& t) { walk(io, t); });
}

template <typename IO, util::RecordOf<SimCheckpoint> C>
void walk(IO& io, C& c) {
  io.field(c.run_seed);
  io.field(c.algo);
  io.field(c.resume_count);
  io.field(c.checkpoints_written);
  io.field(c.virtual_time_s);
  io.field(c.round);
  io.field(c.tasks_completed);
  io.vector(c.model_parameters, kCount);
  io.vector(c.server_velocity, kCount);
  io.string(c.server_rng_state, kCount);
  io.field(c.next_task_id);
  io.field(c.arrival_cursor);
  io.records(c.requeued, kCount, kRequeuedBytes, [](auto& io, auto& r) {
    io.field(r.time);
    io.field(r.client_id);
    io.field(r.device_index);
    io.field(r.window_end);
  });
  io.records(c.last_participation, kCount, kParticipationBytes, [](auto& io, auto& p) {
    io.field(p.first);
    io.field(p.second);
  });
  walk(io, c.metrics);
  io.records(c.eval_curve, kCount, kEvalPointBytes, [](auto& io, auto& e) {
    io.field(e.time);
    io.field(e.round);
    io.field(e.metric);
    io.field(e.train_loss);
  });
  io.records(c.client_accounts, kCount, kClientAccountBytes, [](auto& io, auto& a) {
    io.field(a.client_id);
    io.field(a.tasks_succeeded);
    io.field(a.tasks_interrupted);
    io.field(a.tasks_stale);
    io.field(a.tasks_failed);
    io.field(a.compute_s);
    io.field(a.wasted_compute_s);
    io.field(a.bytes_down);
    io.field(a.bytes_up);
  });
  io.field(c.has_fedbuff);
  if (c.has_fedbuff) walk(io, c.fedbuff);
}

}  // namespace

std::vector<char> serialize_checkpoint(const SimCheckpoint& c) {
  // One buffer: the header goes first with its size and CRC zeroed, the
  // payload is walked straight in behind it, and the two fields are filled
  // in once the payload is known.
  util::ByteWriter out;
  out.magic(kMagic, "checkpoint");
  out.version(kFormatVersion, "checkpoint format");
  out.field(std::uint64_t{0});
  out.field(std::uint32_t{0});
  walk(out, c);
  std::vector<char> bytes = out.take();
  const std::uint64_t payload_size = bytes.size() - kHeaderSize;
  const std::uint32_t crc = util::crc32(bytes.data() + kHeaderSize, payload_size);
  std::memcpy(bytes.data() + kPayloadSizeOffset, &payload_size, sizeof(payload_size));
  std::memcpy(bytes.data() + kPayloadCrcOffset, &crc, sizeof(crc));
  return bytes;
}

SimCheckpoint deserialize_checkpoint(const std::vector<char>& bytes) {
  util::ByteReader in(bytes);
  in.magic(kMagic, "checkpoint");
  in.version(kFormatVersion, "checkpoint format");
  const auto payload_size = in.read<std::uint64_t>();
  const auto expected_crc = in.read<std::uint32_t>();
  FLINT_CHECK_MSG(payload_size == in.remaining(),
                  "checkpoint payload truncated: header says " << payload_size << ", have "
                                                               << in.remaining());
  std::uint32_t actual_crc = util::crc32(bytes.data() + kHeaderSize, in.remaining());
  FLINT_CHECK_MSG(actual_crc == expected_crc, "checkpoint CRC mismatch: stored "
                                                  << expected_crc << ", computed " << actual_crc);

  SimCheckpoint c;
  walk(in, c);
  in.finish("checkpoint");
  FLINT_CHECK_FINITE(c.virtual_time_s);
  FLINT_CHECK_GE(c.virtual_time_s, 0.0);
  return c;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const fs::path& path = entry.path();
    if (path.extension() == ".tmp" && seq_of(path) >= 0) {
      // Leftover from a writer that died between open and rename; it was
      // never published, so it is garbage — and counting its stem toward
      // next_seq_ would inflate numbering forever.
      FLINT_LOG_WARN << "removing stale checkpoint temp file " << path.string();
      std::error_code ec;
      fs::remove(path, ec);
      continue;
    }
    if (path.extension() != ".bin") continue;
    std::int64_t seq = seq_of(path);
    if (seq >= next_seq_) next_seq_ = seq + 1;
  }
}

std::int64_t CheckpointStore::write(const SimCheckpoint& checkpoint) {
  // Cold, potentially multi-threaded path: use the per-call free functions
  // rather than cached handles (which are single-threaded by design).
  // flint-analyze: allow(nondet-source): wall-clock write latency feeds an
  // observability histogram only, never the simulated state.
  auto wall_start = std::chrono::steady_clock::now();
  std::int64_t seq;
  {
    util::MutexLock lock(seq_mutex_);
    seq = next_seq_++;
  }
  auto blob = serialize_checkpoint(checkpoint);
  fs::path final_path = fs::path(dir_) / ("ckpt_" + std::to_string(seq) + ".bin");
  fs::path tmp_path = fs::path(dir_) / ("ckpt_" + std::to_string(seq) + ".tmp");
  bool ok;
  {
    std::ofstream out(tmp_path, std::ios::binary);
    FLINT_CHECK_MSG(out.good(), "cannot write " << tmp_path.string());
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    ok = out.good();
    out.close();
    ok = ok && !out.fail();
  }
  if (!ok) {
    // Full disk or I/O error: never publish the truncated file.
    std::error_code ec;
    fs::remove(tmp_path, ec);
    FLINT_CHECK_MSG(false, "checkpoint write failed (disk full?): " << tmp_path.string());
  }
  fs::rename(tmp_path, final_path);  // atomic publish
  // flint-analyze: allow(nondet-source): same observability-only latency stamp.
  double wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  obs::record_histogram("store.checkpoint_write_us", wall_us, 0.0, 20'000.0, 40);
  obs::add_counter("store.checkpoint_bytes", blob.size());
  return seq;
}

std::optional<SimCheckpoint> CheckpointStore::latest() const {
  std::vector<std::pair<std::int64_t, fs::path>> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() != ".bin") continue;
    std::int64_t seq = seq_of(entry.path());
    if (seq >= 0) files.emplace_back(seq, entry.path());
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  // Newest first, falling back past anything unreadable or corrupt: a torn
  // newest file (crash mid-publish, disk fault) must cost at most one
  // checkpoint of progress, not abort the resume.
  for (const auto& [seq, path] : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
      FLINT_LOG_WARN << "skipping unreadable checkpoint " << path.string();
      continue;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    try {
      return deserialize_checkpoint(bytes);
    } catch (const util::CheckError& e) {
      FLINT_LOG_WARN << "skipping corrupt checkpoint " << path.string() << ": " << e.what();
    }
  }
  return std::nullopt;
}

std::size_t CheckpointStore::checkpoint_count() const {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir_))
    if (entry.path().extension() == ".bin" && seq_of(entry.path()) >= 0) ++n;
  return n;
}

}  // namespace flint::store
