// Tests for model serialization, session-log persistence, and the §4.1
// attribute-profile coin-flip trace builder.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "flint/device/attribute_profile.h"
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
  EXPECT_TRUE(model.forward(batch) == back->forward(batch));
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

TEST(ModelSerialize, AllZooModelsRoundTripThroughFiles) {
  auto dir = fs::temp_directory_path() / "flint_model_serialize";
  fs::remove_all(dir);
  fs::create_directories(dir);
  util::Rng rng(3);
  for (const auto& spec : ml::model_zoo()) {
    auto model = ml::build_zoo_model(spec.id, rng);
    std::string path = (dir / (std::string("model_") + spec.id + ".flmd")).string();
    ml::save_model(path, *model);
    EXPECT_EQ(static_cast<std::size_t>(fs::file_size(path)),
              ml::serialized_model_bytes(*model));
    auto back = ml::load_model(path);
    EXPECT_EQ(back->get_flat_parameters(), model->get_flat_parameters()) << spec.id;
  }
  fs::remove_all(dir);
}

TEST(ModelSerialize, SizeTracksSdkBudget) {
  // Model B must serialize under the paper's 1MB SDK budget; Model E must
  // not (it is a first-party-app model).
  util::Rng rng(4);
  auto b = ml::build_zoo_model('B', rng);
  auto e = ml::build_zoo_model('E', rng);
  EXPECT_LT(ml::serialized_model_bytes(*b), 1'000'000u);
  EXPECT_GT(ml::serialized_model_bytes(*e), 1'000'000u);
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

TEST(SessionIo, RoundTripPreservesSessions) {
  auto dir = fs::temp_directory_path() / "flint_session_io";
  fs::remove_all(dir);
  fs::create_directories(dir);
  util::Rng rng(6);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 100;
  cfg.days = 3;
  auto log = device::generate_sessions(cfg, catalog, rng);

  std::string path = (dir / "sessions.csv").string();
  device::write_session_log_csv(path, log);
  auto back = device::read_session_log_csv(path);
  ASSERT_EQ(back.sessions.size(), log.sessions.size());
  for (std::size_t i = 0; i < log.sessions.size(); ++i) {
    EXPECT_EQ(back.sessions[i].client_id, log.sessions[i].client_id);
    EXPECT_EQ(back.sessions[i].device_index, log.sessions[i].device_index);
    EXPECT_NEAR(back.sessions[i].start, log.sessions[i].start, 1e-6);
    EXPECT_NEAR(back.sessions[i].end, log.sessions[i].end, 1e-6);
    EXPECT_EQ(back.sessions[i].wifi, log.sessions[i].wifi);
    EXPECT_NEAR(back.sessions[i].battery_pct, log.sessions[i].battery_pct, 1e-6);
  }
  // Criteria analysis must agree on both copies.
  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  EXPECT_NEAR(device::criteria_pass_fraction(log, criteria, catalog),
              device::criteria_pass_fraction(back, criteria, catalog), 1e-9);
  fs::remove_all(dir);
}

TEST(SessionIo, BinaryChunkRoundTripIsBitExact) {
  // The spill format under the streaming generator's k-way merge: unlike the
  // CSV path there is no decimal formatting, so every field must come back
  // bit-for-bit.
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

TEST(SessionIo, RejectsBadFiles) {
  auto dir = fs::temp_directory_path() / "flint_session_bad";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string path = (dir / "bad.csv").string();
  {
    std::ofstream out(path);
    out << "not,a,session,log\n";
  }
  EXPECT_THROW(device::read_session_log_csv(path), util::CheckError);
  EXPECT_THROW(device::read_session_log_csv((dir / "missing.csv").string()),
               util::CheckError);
  fs::remove_all(dir);
}

// --------------------------------------------------- device::AttributeProfile

TEST(AttributeProfile, EstimatesMarginalsFromLog) {
  util::Rng rng(7);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 1200;
  cfg.days = 7;
  cfg.wifi_probability = 0.70;
  cfg.high_battery_probability = 0.34;
  auto log = device::generate_sessions(cfg, catalog, rng);
  auto profile = device::AttributeProfile::estimate(log);
  // The generator's attributes are time-independent, so every hour's
  // estimate should hover near the marginals.
  double wifi_sum = 0.0, battery_sum = 0.0;
  for (int h = 0; h < 24; ++h) {
    wifi_sum += profile.wifi_probability_at(h * 3600.0);
    battery_sum += profile.battery_probability_at(h * 3600.0);
  }
  EXPECT_NEAR(wifi_sum / 24.0, 0.70, 0.06);
  EXPECT_NEAR(battery_sum / 24.0, 0.34, 0.06);
  EXPECT_NEAR(profile.eligibility_probability_at(0.0),
              profile.wifi_probability_at(0.0) * profile.battery_probability_at(0.0), 1e-12);
}

TEST(AttributeProfile, CoinflipTraceMatchesDirectFiltering) {
  // The §4.1 weighted coin-flip applied to attribute-free sessions should
  // keep approximately the same fraction as direct attribute filtering.
  util::Rng rng(8);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 1500;
  cfg.days = 7;
  auto log = device::generate_sessions(cfg, catalog, rng);
  auto profile = device::AttributeProfile::estimate(log);

  device::AvailabilityCriteria criteria;
  criteria.require_wifi = true;
  criteria.min_battery_pct = 80.0;
  auto direct = device::build_availability(log, criteria, catalog);
  util::Rng flip_rng(9);
  auto flipped =
      device::build_availability_by_coinflip(log, profile, criteria, catalog, flip_rng);

  double direct_frac =
      static_cast<double>(direct.window_count()) / static_cast<double>(log.sessions.size());
  double flipped_frac =
      static_cast<double>(flipped.window_count()) / static_cast<double>(log.sessions.size());
  EXPECT_NEAR(flipped_frac, direct_frac, 0.03);
}

TEST(AttributeProfile, HardCriteriaStillApply) {
  util::Rng rng(10);
  auto catalog = device::DeviceCatalog::standard();
  device::SessionGeneratorConfig cfg;
  cfg.clients = 300;
  cfg.days = 2;
  auto log = device::generate_sessions(cfg, catalog, rng);
  auto profile = device::AttributeProfile::estimate(log);
  device::AvailabilityCriteria criteria;
  criteria.min_os_release = 999912;  // impossible: nothing passes
  util::Rng flip_rng(11);
  auto trace =
      device::build_availability_by_coinflip(log, profile, criteria, catalog, flip_rng);
  EXPECT_EQ(trace.window_count(), 0u);
}

}  // namespace
}  // namespace flint
