// Tests for model serialization and the session spill-chunk format.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "flint/device/session_io.h"
#include "flint/ml/model_zoo.h"
#include "flint/ml/serialize.h"
#include "test_helpers.h"

namespace flint {
namespace {

namespace fs = std::filesystem;

// -------------------------------------------------------- ml::serialize

TEST(ModelSerialize, FeedForwardRoundTripPreservesOutputs) {
  util::Rng rng(1);
  ml::FeedForwardConfig cfg;
  cfg.front_end = ml::FrontEnd::kEmbedding;
  cfg.vocab = 30;
  cfg.embed_dim = 6;
  cfg.dense_dim = 4;
  cfg.hidden = {8, 5};
  cfg.heads = 2;
  ml::FeedForwardModel model(cfg);
  model.init(rng);

  auto blob = serialize_model(model);
  auto back = ml::deserialize_model(blob);
  ASSERT_EQ(back->parameter_count(), model.parameter_count());
  EXPECT_EQ(back->get_flat_parameters(), model.get_flat_parameters());
  EXPECT_EQ(back->heads(), 2u);

  std::vector<ml::Example> examples(3);
  for (auto& e : examples) {
    e.dense = {0.1f, -0.2f, 0.3f, 0.4f};
    e.tokens = {1, 5, 7};
  }
  ml::Batch batch = ml::Batch::from_examples(examples, 4);
  ml::Tensor a = model.forward(batch);
  ml::Tensor b = back->forward(batch);
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_TRUE(std::ranges::equal(a.flat(), b.flat()));
}

TEST(ModelSerialize, ConvTextRoundTrip) {
  util::Rng rng(2);
  ml::ConvTextConfig cfg;
  cfg.vocab = 40;
  cfg.embed_dim = 6;
  cfg.seq_len = 5;
  cfg.conv_channels = 3;
  cfg.kernel = 2;
  cfg.hidden = {4};
  ml::ConvTextModel model(cfg);
  model.init(rng);
  auto back = ml::deserialize_model(serialize_model(model));
  EXPECT_EQ(back->get_flat_parameters(), model.get_flat_parameters());
}

TEST(ModelSerialize, AllZooModelsRoundTrip) {
  util::Rng rng(3);
  for (const auto& spec : ml::model_zoo()) {
    auto model = ml::build_zoo_model(spec.id, rng);
    auto back = ml::deserialize_model(ml::serialize_model(*model));
    EXPECT_EQ(back->get_flat_parameters(), model->get_flat_parameters()) << spec.id;
  }
}

TEST(ModelSerialize, SizeTracksSdkBudget) {
  // Model B must serialize under the paper's 1MB SDK budget; Model E must
  // not (it is a first-party-app model).
  util::Rng rng(4);
  auto b = ml::build_zoo_model('B', rng);
  auto e = ml::build_zoo_model('E', rng);
  EXPECT_LT(ml::serialize_model(*b).size(), 1'000'000u);
  EXPECT_GT(ml::serialize_model(*e).size(), 1'000'000u);
}

TEST(ModelSerialize, GarbageRejected) {
  std::vector<char> garbage = {'X', 'Y', 'Z', 'W', 9};
  EXPECT_THROW(ml::deserialize_model(garbage), util::CheckError);
  // Truncated weights.
  util::Rng rng(5);
  auto model = ml::build_zoo_model('A', rng);
  auto blob = serialize_model(*model);
  blob.resize(blob.size() - 16);
  EXPECT_THROW(ml::deserialize_model(blob), util::CheckError);
}

// ------------------------------------------------------- device::session_io

TEST(SessionIo, BinaryChunkRoundTripIsBitExact) {
  // The spill format under the streaming generator's k-way merge: there is
  // no decimal formatting, so every field must come back bit-for-bit.
  auto dir = fs::temp_directory_path() / "flint_session_chunk";
  fs::remove_all(dir);
  fs::create_directories(dir);
  util::Rng rng(61);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 400;  // ~2,600 sessions: the writer flushes several full batches
  cfg.days = 2;
  auto log = device::generate_sessions(cfg, catalog, rng);
  ASSERT_GT(log.sessions.size(), 2048u);

  std::string path = (dir / "chunk.bin").string();
  {
    device::SessionChunkWriter writer(path);
    for (const auto& s : log.sessions) writer.add(s);
    writer.finish();
  }
  device::SessionChunkReader reader(path, /*buffer_sessions=*/7);  // odd size:
  EXPECT_EQ(reader.count(), log.sessions.size());  // forces partial refills
  std::size_t i = 0;
  while (auto s = reader.next()) {
    ASSERT_LT(i, log.sessions.size());
    EXPECT_EQ(s->client_id, log.sessions[i].client_id);
    EXPECT_EQ(s->device_index, log.sessions[i].device_index);
    EXPECT_EQ(s->start, log.sessions[i].start);
    EXPECT_EQ(s->end, log.sessions[i].end);
    EXPECT_EQ(s->wifi, log.sessions[i].wifi);
    EXPECT_EQ(s->battery_pct, log.sessions[i].battery_pct);
    EXPECT_EQ(s->foreground, log.sessions[i].foreground);
    ++i;
  }
  EXPECT_EQ(i, log.sessions.size());
  EXPECT_FALSE(reader.next().has_value());
  fs::remove_all(dir);
}

TEST(SessionIo, BinaryChunkRejectsBadHeaderAndTruncation) {
  auto dir = fs::temp_directory_path() / "flint_session_chunk_bad";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string garbage = (dir / "garbage.bin").string();
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not a session chunk";
  }
  EXPECT_THROW(device::SessionChunkReader(garbage, 16), util::CheckError);
  EXPECT_THROW(device::SessionChunkReader((dir / "missing.bin").string(), 16),
               util::CheckError);

  // A valid header whose record payload was cut short must be caught by the
  // reader's byte accounting, not returned as silently-zeroed sessions.
  std::string truncated = (dir / "truncated.bin").string();
  {
    device::SessionChunkWriter writer(truncated);
    device::Session s;
    s.client_id = 1;
    s.start = 1.0;
    s.end = 2.0;
    for (int i = 0; i < 4; ++i) writer.add(s);
    writer.finish();
  }
  fs::resize_file(truncated, fs::file_size(truncated) - 10);
  device::SessionChunkReader reader(truncated, 16);
  EXPECT_THROW(
      {
        while (reader.next()) {
        }
      },
      util::CheckError);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace flint
