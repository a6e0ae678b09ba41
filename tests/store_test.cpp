#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "flint/store/checkpoint.h"
#include "flint/util/check.h"
#include "flint/util/crc32.h"

namespace flint::store {
namespace {

namespace fs = std::filesystem;

/// RAII temp directory for store tests.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() / ("flint_test_" + tag + "_" +
                                         std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// -------------------------------------------------------------- Checkpoints

SimCheckpoint sample_checkpoint(double t, std::uint64_t round) {
  SimCheckpoint c;
  c.virtual_time_s = t;
  c.round = round;
  c.tasks_completed = round * 10;
  c.model_parameters = {static_cast<float>(round), 2.0f};
  return c;
}

TEST(Checkpoint, SerializeRoundTrip) {
  auto c = sample_checkpoint(99.5, 7);
  auto back = deserialize_checkpoint(serialize_checkpoint(c));
  EXPECT_DOUBLE_EQ(back.virtual_time_s, 99.5);
  EXPECT_EQ(back.round, 7u);
  EXPECT_EQ(back.tasks_completed, 70u);
  EXPECT_EQ(back.model_parameters, c.model_parameters);
}

TEST(Checkpoint, DeserializeRejectsTruncation) {
  auto blob = serialize_checkpoint(sample_checkpoint(1.0, 1));
  blob.resize(blob.size() - 3);
  EXPECT_THROW(deserialize_checkpoint(blob), util::CheckError);
}

// ---------------------------------------------------- blob corruption matrix
// Header layout: "FCKP"(4) | u32 version | u64 payload_size | u32 crc32.
constexpr std::size_t kBlobHeaderSize = 20;
constexpr std::size_t kCrcOffset = 16;

std::uint32_t blob_payload_crc(const std::vector<char>& blob) {
  return util::crc32(blob.data() + kBlobHeaderSize, blob.size() - kBlobHeaderSize);
}

TEST(Checkpoint, DeserializeRejectsShortBlob) {
  EXPECT_THROW(deserialize_checkpoint({}), util::CheckError);
  std::vector<char> stub = {'F', 'C', 'K', 'P', 2, 0, 0};
  EXPECT_THROW(deserialize_checkpoint(stub), util::CheckError);
}

TEST(Checkpoint, DeserializeRejectsBadMagic) {
  auto blob = serialize_checkpoint(sample_checkpoint(1.0, 1));
  blob[0] = 'X';
  EXPECT_THROW(deserialize_checkpoint(blob), util::CheckError);
}

TEST(Checkpoint, DeserializeRejectsUnknownFormatVersion) {
  auto blob = serialize_checkpoint(sample_checkpoint(1.0, 1));
  std::uint32_t bogus_version = 99;
  std::memcpy(blob.data() + 4, &bogus_version, sizeof(bogus_version));
  EXPECT_THROW(deserialize_checkpoint(blob), util::CheckError);
}

TEST(Checkpoint, DeserializeRejectsCrcMismatch) {
  auto blob = serialize_checkpoint(sample_checkpoint(1.0, 1));
  blob[kBlobHeaderSize + 3] ^= 0x40;  // flip one payload bit
  EXPECT_THROW(deserialize_checkpoint(blob), util::CheckError);
}

TEST(Checkpoint, DeserializeRejectsOverflowingElementCount) {
  // Patch the model-parameter count to a value where `n * sizeof(float)`
  // wraps size_t to a tiny number, then re-stamp the CRC so only the count
  // bounds check stands between the parser and a wild resize. The division
  // form `n <= remaining / sizeof(float)` must reject it.
  auto blob = serialize_checkpoint(sample_checkpoint(1.0, 1));
  // Fixed-width prefix before the count: run_seed(8) + algo(1) +
  // resume_count(8) + checkpoints_written(8) + virtual_time_s(8) + round(8)
  // + tasks_completed(8) = 49 payload bytes.
  constexpr std::size_t kParamCountOffset = kBlobHeaderSize + 49;
  std::uint64_t evil_count = 0x4000000000000001ull;  // * 4 wraps to 4
  std::memcpy(blob.data() + kParamCountOffset, &evil_count, sizeof(evil_count));
  std::uint32_t crc = blob_payload_crc(blob);
  std::memcpy(blob.data() + kCrcOffset, &crc, sizeof(crc));
  EXPECT_THROW(deserialize_checkpoint(blob), util::CheckError);
}

TEST(Checkpoint, DeserializeRejectsTrailingBytes) {
  // Trailing garbage that is *included* in the declared payload (size and CRC
  // both cover it) must still be rejected: every byte has to be consumed.
  auto blob = serialize_checkpoint(sample_checkpoint(1.0, 1));
  blob.insert(blob.end(), 8, '\0');
  std::uint64_t payload_size = blob.size() - kBlobHeaderSize;
  std::memcpy(blob.data() + 8, &payload_size, sizeof(payload_size));
  std::uint32_t crc = blob_payload_crc(blob);
  std::memcpy(blob.data() + kCrcOffset, &crc, sizeof(crc));
  EXPECT_THROW(deserialize_checkpoint(blob), util::CheckError);
}

TEST(Checkpoint, SerializeRoundTripAllFields) {
  SimCheckpoint c;
  c.virtual_time_s = 1234.5;
  c.round = 17;
  c.tasks_completed = 170;
  c.model_parameters = {1.5f, -2.25f, 0.125f};
  c.run_seed = 0xDEADBEEFCAFEull;
  c.algo = kCheckpointAlgoFedBuff;
  c.resume_count = 3;
  c.checkpoints_written = 9;
  c.server_velocity = {0.5f, -0.5f, 0.0f};
  c.server_rng_state = std::string("rng\0state", 9);  // embedded NUL survives
  c.next_task_id = 421;
  c.arrival_cursor = 88;
  c.requeued = {{10.5, 4, 1, 99.0}, {11.5, 7, 0, 100.0}};
  c.last_participation = {{2, 5.0}, {9, 7.5}};
  c.metrics.tasks_started = 50;
  c.metrics.tasks_succeeded = 40;
  c.metrics.tasks_interrupted = 5;
  c.metrics.tasks_stale = 3;
  c.metrics.tasks_failed = 2;
  c.metrics.updates_aggregated = 38;
  c.metrics.client_compute_s = 123.25;
  c.metrics.rounds = {{1, 0.0, 10.0, 4, 0.5}, {2, 10.0, 21.0, 4, 1.25}};
  c.metrics.checkpoints = {{2, 21.0}};
  c.eval_curve = {{10.0, 1, 0.75, 0.5}, {21.0, 2, 0.8, 0.4}};
  c.client_accounts = {{3, 4, 1, 0, 0, 2.5, 0.25, 1000, 2000},
                       {8, 2, 0, 1, 1, 1.5, 0.75, 500, 900}};
  c.has_fedbuff = true;
  c.fedbuff.accumulator_sum = {0.25, -0.75, 1.0};
  c.fedbuff.accumulator_weight_sum = 3.5;
  c.fedbuff.accumulator_count = 2;
  c.fedbuff.staleness_sum = 4.0;
  c.fedbuff.round_start = 10.0;
  c.fedbuff.last_aggregation_time = 21.0;
  c.fedbuff.pump_scheduled = true;
  c.fedbuff.pump_time = 22.5;
  c.fedbuff.pump_stamp = 41;
  c.fedbuff.next_stamp = 42;
  CheckpointInFlightTask t;
  t.task_id = 77;
  t.client_id = 12;
  t.device_index = 2;
  t.model_version = 16;
  t.dispatch_time = 20.0;
  t.compute_s = 3.5;
  t.comm_s = 0.5;
  t.examples = 64;
  t.update_bytes = 4096;
  t.spent_compute_s = 1.25;
  t.window_end = 30.0;
  t.finish_time = 24.0;
  t.interrupted = true;
  t.stamp = 40;
  t.update_weight = 64.0;
  t.update_delta = {0.1f, -0.2f, 0.3f};
  c.fedbuff.in_flight = {t};

  SimCheckpoint b = deserialize_checkpoint(serialize_checkpoint(c));
  EXPECT_EQ(b.virtual_time_s, c.virtual_time_s);
  EXPECT_EQ(b.round, c.round);
  EXPECT_EQ(b.tasks_completed, c.tasks_completed);
  EXPECT_EQ(b.model_parameters, c.model_parameters);
  EXPECT_EQ(b.run_seed, c.run_seed);
  EXPECT_EQ(b.algo, c.algo);
  EXPECT_EQ(b.resume_count, c.resume_count);
  EXPECT_EQ(b.checkpoints_written, c.checkpoints_written);
  EXPECT_EQ(b.server_velocity, c.server_velocity);
  EXPECT_EQ(b.server_rng_state, c.server_rng_state);
  EXPECT_EQ(b.next_task_id, c.next_task_id);
  EXPECT_EQ(b.arrival_cursor, c.arrival_cursor);
  ASSERT_EQ(b.requeued.size(), c.requeued.size());
  for (std::size_t i = 0; i < c.requeued.size(); ++i) {
    EXPECT_EQ(b.requeued[i].time, c.requeued[i].time);
    EXPECT_EQ(b.requeued[i].client_id, c.requeued[i].client_id);
    EXPECT_EQ(b.requeued[i].device_index, c.requeued[i].device_index);
    EXPECT_EQ(b.requeued[i].window_end, c.requeued[i].window_end);
  }
  EXPECT_EQ(b.last_participation, c.last_participation);
  EXPECT_EQ(b.metrics.tasks_started, c.metrics.tasks_started);
  EXPECT_EQ(b.metrics.tasks_succeeded, c.metrics.tasks_succeeded);
  EXPECT_EQ(b.metrics.tasks_interrupted, c.metrics.tasks_interrupted);
  EXPECT_EQ(b.metrics.tasks_stale, c.metrics.tasks_stale);
  EXPECT_EQ(b.metrics.tasks_failed, c.metrics.tasks_failed);
  EXPECT_EQ(b.metrics.updates_aggregated, c.metrics.updates_aggregated);
  EXPECT_EQ(b.metrics.client_compute_s, c.metrics.client_compute_s);
  ASSERT_EQ(b.metrics.rounds.size(), c.metrics.rounds.size());
  for (std::size_t i = 0; i < c.metrics.rounds.size(); ++i) {
    EXPECT_EQ(b.metrics.rounds[i].round, c.metrics.rounds[i].round);
    EXPECT_EQ(b.metrics.rounds[i].start, c.metrics.rounds[i].start);
    EXPECT_EQ(b.metrics.rounds[i].end, c.metrics.rounds[i].end);
    EXPECT_EQ(b.metrics.rounds[i].updates_aggregated, c.metrics.rounds[i].updates_aggregated);
    EXPECT_EQ(b.metrics.rounds[i].mean_staleness, c.metrics.rounds[i].mean_staleness);
  }
  ASSERT_EQ(b.metrics.checkpoints.size(), c.metrics.checkpoints.size());
  EXPECT_EQ(b.metrics.checkpoints[0].round, c.metrics.checkpoints[0].round);
  EXPECT_EQ(b.metrics.checkpoints[0].time, c.metrics.checkpoints[0].time);
  ASSERT_EQ(b.eval_curve.size(), c.eval_curve.size());
  for (std::size_t i = 0; i < c.eval_curve.size(); ++i) {
    EXPECT_EQ(b.eval_curve[i].time, c.eval_curve[i].time);
    EXPECT_EQ(b.eval_curve[i].round, c.eval_curve[i].round);
    EXPECT_EQ(b.eval_curve[i].metric, c.eval_curve[i].metric);
    EXPECT_EQ(b.eval_curve[i].train_loss, c.eval_curve[i].train_loss);
  }
  ASSERT_EQ(b.client_accounts.size(), c.client_accounts.size());
  for (std::size_t i = 0; i < c.client_accounts.size(); ++i) {
    EXPECT_EQ(b.client_accounts[i].client_id, c.client_accounts[i].client_id);
    EXPECT_EQ(b.client_accounts[i].tasks_succeeded, c.client_accounts[i].tasks_succeeded);
    EXPECT_EQ(b.client_accounts[i].tasks_interrupted, c.client_accounts[i].tasks_interrupted);
    EXPECT_EQ(b.client_accounts[i].tasks_stale, c.client_accounts[i].tasks_stale);
    EXPECT_EQ(b.client_accounts[i].tasks_failed, c.client_accounts[i].tasks_failed);
    EXPECT_EQ(b.client_accounts[i].compute_s, c.client_accounts[i].compute_s);
    EXPECT_EQ(b.client_accounts[i].wasted_compute_s, c.client_accounts[i].wasted_compute_s);
    EXPECT_EQ(b.client_accounts[i].bytes_down, c.client_accounts[i].bytes_down);
    EXPECT_EQ(b.client_accounts[i].bytes_up, c.client_accounts[i].bytes_up);
  }
  ASSERT_TRUE(b.has_fedbuff);
  EXPECT_EQ(b.fedbuff.accumulator_sum, c.fedbuff.accumulator_sum);
  EXPECT_EQ(b.fedbuff.accumulator_weight_sum, c.fedbuff.accumulator_weight_sum);
  EXPECT_EQ(b.fedbuff.accumulator_count, c.fedbuff.accumulator_count);
  EXPECT_EQ(b.fedbuff.staleness_sum, c.fedbuff.staleness_sum);
  EXPECT_EQ(b.fedbuff.round_start, c.fedbuff.round_start);
  EXPECT_EQ(b.fedbuff.last_aggregation_time, c.fedbuff.last_aggregation_time);
  EXPECT_EQ(b.fedbuff.pump_scheduled, c.fedbuff.pump_scheduled);
  EXPECT_EQ(b.fedbuff.pump_time, c.fedbuff.pump_time);
  EXPECT_EQ(b.fedbuff.pump_stamp, c.fedbuff.pump_stamp);
  EXPECT_EQ(b.fedbuff.next_stamp, c.fedbuff.next_stamp);
  ASSERT_EQ(b.fedbuff.in_flight.size(), 1u);
  const auto& bt = b.fedbuff.in_flight[0];
  EXPECT_EQ(bt.task_id, t.task_id);
  EXPECT_EQ(bt.client_id, t.client_id);
  EXPECT_EQ(bt.device_index, t.device_index);
  EXPECT_EQ(bt.model_version, t.model_version);
  EXPECT_EQ(bt.dispatch_time, t.dispatch_time);
  EXPECT_EQ(bt.compute_s, t.compute_s);
  EXPECT_EQ(bt.comm_s, t.comm_s);
  EXPECT_EQ(bt.examples, t.examples);
  EXPECT_EQ(bt.update_bytes, t.update_bytes);
  EXPECT_EQ(bt.spent_compute_s, t.spent_compute_s);
  EXPECT_EQ(bt.window_end, t.window_end);
  EXPECT_EQ(bt.finish_time, t.finish_time);
  EXPECT_EQ(bt.interrupted, t.interrupted);
  EXPECT_EQ(bt.stamp, t.stamp);
  EXPECT_EQ(bt.update_weight, t.update_weight);
  EXPECT_EQ(bt.update_delta, t.update_delta);
}

TEST(CheckpointStore, WriteAndLatest) {
  TempDir dir("ckpt");
  CheckpointStore store(dir.str());
  EXPECT_FALSE(store.latest().has_value());
  EXPECT_EQ(store.write(sample_checkpoint(10.0, 1)), 1);
  EXPECT_EQ(store.write(sample_checkpoint(20.0, 2)), 2);
  auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 2u);
  EXPECT_EQ(store.checkpoint_count(), 2u);
}

TEST(CheckpointStore, ResumesNumberingAcrossInstances) {
  TempDir dir("ckpt_resume");
  {
    CheckpointStore store(dir.str());
    store.write(sample_checkpoint(1.0, 1));
    store.write(sample_checkpoint(2.0, 2));
  }
  CheckpointStore reopened(dir.str());
  EXPECT_EQ(reopened.write(sample_checkpoint(3.0, 3)), 3);
  EXPECT_EQ(reopened.latest()->round, 3u);
}

TEST(CheckpointStore, NoTmpFilesLeftBehind) {
  TempDir dir("ckpt_tmp");
  CheckpointStore store(dir.str());
  store.write(sample_checkpoint(1.0, 1));
  for (const auto& entry : fs::directory_iterator(dir.str()))
    EXPECT_NE(entry.path().extension(), ".tmp");
}

TEST(CheckpointStore, CreatesDirectoryIfMissing) {
  TempDir dir("ckpt_mkdir");
  std::string nested = dir.str() + "/a/b";
  CheckpointStore store(nested);
  store.write(sample_checkpoint(1.0, 1));
  EXPECT_TRUE(fs::exists(nested));
}

// -------------------------------------------------- store recovery behavior

void truncate_file(const fs::path& path, std::uintmax_t keep) {
  fs::resize_file(path, keep);
}

TEST(CheckpointStore, LatestSkipsTornNewestFile) {
  // A crash mid-publish (or a disk fault after publish) leaves a torn newest
  // file; resume must fall back to the valid predecessor, not abort.
  TempDir dir("ckpt_torn");
  CheckpointStore store(dir.str());
  store.write(sample_checkpoint(10.0, 1));
  store.write(sample_checkpoint(20.0, 2));
  truncate_file(fs::path(dir.str()) / "ckpt_2.bin", 11);
  auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 1u);
}

TEST(CheckpointStore, LatestSkipsBitFlippedNewestFile) {
  TempDir dir("ckpt_flip");
  CheckpointStore store(dir.str());
  store.write(sample_checkpoint(10.0, 1));
  store.write(sample_checkpoint(20.0, 2));
  fs::path newest = fs::path(dir.str()) / "ckpt_2.bin";
  std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(24);
  char byte;
  f.seekg(24);
  f.get(byte);
  byte ^= 0x01;
  f.seekp(24);
  f.put(byte);
  f.close();
  auto latest = store.latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->round, 1u);
}

TEST(CheckpointStore, LatestReturnsNulloptWhenAllCorrupt) {
  TempDir dir("ckpt_allbad");
  CheckpointStore store(dir.str());
  store.write(sample_checkpoint(10.0, 1));
  store.write(sample_checkpoint(20.0, 2));
  truncate_file(fs::path(dir.str()) / "ckpt_1.bin", 5);
  truncate_file(fs::path(dir.str()) / "ckpt_2.bin", 5);
  EXPECT_FALSE(store.latest().has_value());
}

TEST(CheckpointStore, SweepsStaleTmpFilesAtConstruction) {
  TempDir dir("ckpt_sweep");
  {
    std::ofstream tmp(fs::path(dir.str()) / "ckpt_7.tmp", std::ios::binary);
    tmp << "half-written garbage from a dead writer";
  }
  CheckpointStore store(dir.str());
  EXPECT_FALSE(fs::exists(fs::path(dir.str()) / "ckpt_7.tmp"));
  // The dead writer's temp must not inflate numbering either.
  EXPECT_EQ(store.write(sample_checkpoint(1.0, 1)), 1);
}

TEST(CheckpointStore, LeavesForeignFilesAlone) {
  TempDir dir("ckpt_foreign");
  fs::path notes = fs::path(dir.str()) / "notes.txt";
  fs::path weird_tmp = fs::path(dir.str()) / "ckpt_99999999999999999999.tmp";
  fs::path not_ours = fs::path(dir.str()) / "other_3.tmp";
  for (const auto& p : {notes, weird_tmp, not_ours}) std::ofstream(p) << "keep me";
  CheckpointStore store(dir.str());
  // Only files matching our own ckpt_<seq>.tmp naming are swept; anything
  // the parse rejects (including an overflowing sequence) is not ours.
  EXPECT_TRUE(fs::exists(notes));
  EXPECT_TRUE(fs::exists(weird_tmp));
  EXPECT_TRUE(fs::exists(not_ours));
  EXPECT_EQ(store.write(sample_checkpoint(1.0, 1)), 1);
}

TEST(CheckpointStore, HandlesSequenceNumbersPastIntRange) {
  // A long-running lineage's sequence numbers exceed 32-bit int; numbering
  // must keep counting instead of overflowing in std::stoi.
  TempDir dir("ckpt_bigseq");
  auto blob = serialize_checkpoint(sample_checkpoint(30.0, 3));
  {
    std::ofstream out(fs::path(dir.str()) / "ckpt_3000000000.bin", std::ios::binary);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  CheckpointStore store(dir.str());
  EXPECT_EQ(store.checkpoint_count(), 1u);
  EXPECT_EQ(store.latest()->round, 3u);
  EXPECT_EQ(store.write(sample_checkpoint(40.0, 4)), 3000000001);
  EXPECT_EQ(store.latest()->round, 4u);
}

}  // namespace
}  // namespace flint::store
