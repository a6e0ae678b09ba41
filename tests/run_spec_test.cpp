#include "flint/core/run_spec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "flint/util/check.h"

namespace flint::core {
namespace {

/// A spec declared the way a binary declares one: a result flag of each
/// value type, a wall-time flag of its own, and every shared group.
struct TestSpec {
  std::string algo = "fedbuff";
  std::uint64_t rounds = 8;
  double rate = 1.5;
  bool faults = false;
  std::string tag;
  std::uint64_t abort_after_round = 0;
  RunSpec spec{"test: fixed settings"};

  TestSpec() {
    spec.flag("algo", FlagKind::kResult, &algo, "fedavg|fedbuff")
        .flag("rounds", FlagKind::kResult, &rounds, 1)
        .flag("rate", FlagKind::kResult, &rate, 0.0, 10.0)
        .flag("faults", FlagKind::kResult, &faults)
        .flag("tag", FlagKind::kResult, &tag, "TEXT")
        .flag("abort-after-round", FlagKind::kWallTime, &abort_after_round, 0)
        .with_threads()
        .with_kernels()
        .with_artifact("artifact.json")
        .with_telemetry(/*status=*/true)
        .with_checkpoints(10)
        .with_rpc();
  }
};

void parse(RunSpec& spec, std::vector<std::string> args) {
  args.insert(args.begin(), "run_spec_test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  spec.parse(static_cast<int>(argv.size()), argv.data());
}

const RunSpec::Flag& find_flag(const RunSpec& spec, const std::string& name) {
  for (const RunSpec::Flag& f : spec.flags())
    if (f.name == name) return f;
  throw util::CheckError("no flag " + name);
}

TEST(RunSpec, RejectsBadCommandLines) {
  const std::vector<std::vector<std::string>> bad = {
      {"--bogus"},                             // unknown flag
      {"--bogus=1"},                           // unknown flag, inline value
      {"positional"},                          // not a flag at all
      {"--rounds"},                            // missing value at the end
      {"--artifact-out", "--threads", "2"},    // missing value before a flag
      {"--threads", "0"},                      // below the range
      {"--threads", "abc"},                    // not a number
      {"--threads", "-3"},                     // signed
      {"--rounds", "12x"},                     // trailing junk
      {"--rounds", "99999999999999999999"},    // overflows u64
      {"--rate", "nan"},                       // not finite
      {"--rate", "10.5"},                      // above the range
      {"--algo", "sgd"},                       // not a choice
      {"--algo", "fedavg|fedbuff"},            // nor is a run of choices
      {"--transport", "carrier-pigeon"},       // not a transport
      {"--kernels", "sse"},                    // not a kernel path
      {"--faults=on"},                         // a switch takes no value
  };
  for (const auto& args : bad) {
    TestSpec t;
    EXPECT_THROW(parse(t.spec, args), util::CheckError) << args[0];
  }
}

TEST(RunSpec, ParsesBothValueFormsIntoTheBoundVariables) {
  TestSpec t;
  parse(t.spec, {"--rounds=12", "--threads", "3", "--faults", "--algo=fedavg", "--rate",
                 "0.25", "--transport", "loopback", "--rpc-executors", "4", "--resume"});
  EXPECT_EQ(t.rounds, 12u);
  EXPECT_EQ(t.spec.threads, 3u);
  EXPECT_TRUE(t.faults);
  EXPECT_EQ(t.algo, "fedavg");
  EXPECT_EQ(t.rate, 0.25);
  EXPECT_EQ(t.spec.rpc.kind, fl::TransportKind::kLoopback);
  EXPECT_EQ(t.spec.rpc.executors, 4u);
  EXPECT_TRUE(t.spec.resume);
  EXPECT_EQ(t.spec.config_text(),
            "test: fixed settings algo=fedavg rounds=12 rate=0.25 faults=on tag=");
}

TEST(RunSpec, DefaultConfigTextIsTheDescriptionAndEveryResultFlag) {
  TestSpec t;
  parse(t.spec, {});
  EXPECT_EQ(t.spec.config_text(),
            "test: fixed settings algo=fedbuff rounds=8 rate=1.5 faults=off tag=");
  RunSpec bare("bench: no result flags");
  parse(bare, {});
  EXPECT_EQ(bare.config_text(), "bench: no result flags");
}

TEST(RunSpec, NumbersRenderCanonically) {
  TestSpec a;
  TestSpec b;
  parse(a.spec, {"--rounds", "12", "--rate", "1.5"});
  parse(b.spec, {"--rounds", "012", "--rate", "1.50"});
  EXPECT_EQ(a.spec.config_text(), b.spec.config_text());
}

// Every declared flag, each given one value other than its default: a
// result flag must change config_text, a wall-time flag must leave it as is.
TEST(RunSpec, OnlyResultFlagsReachTheFingerprint) {
  const std::string baseline = [] {
    TestSpec t;
    parse(t.spec, {});
    return t.spec.config_text();
  }();
  TestSpec declared;
  int results = 0;
  int wall_times = 0;
  for (const RunSpec::Flag& flag : declared.spec.flags()) {
    SCOPED_TRACE("--" + flag.name);
    std::vector<std::string> candidates = {"1", "2", "7", "0.5", "some/path"};
    if (flag.meta.find('|') != std::string::npos) {
      candidates.clear();
      std::string rest = flag.meta;
      for (std::size_t bar; (bar = rest.find('|')) != std::string::npos;
           rest = rest.substr(bar + 1))
        candidates.push_back(rest.substr(0, bar));
      candidates.push_back(rest);
    }
    if (flag.meta.empty()) candidates = {""};  // a switch

    auto changed = std::make_unique<TestSpec>();
    const std::string before = find_flag(changed->spec, flag.name).render();
    bool took = false;
    for (const std::string& value : candidates) {
      changed = std::make_unique<TestSpec>();
      std::vector<std::string> args = {"--" + flag.name};
      if (!flag.meta.empty()) args.push_back(value);
      try {
        parse(changed->spec, args);
      } catch (const util::CheckError&) {
        continue;  // e.g. a kernel path this host cannot run
      }
      if (find_flag(changed->spec, flag.name).render() != before) {
        took = true;
        break;
      }
    }
    ASSERT_TRUE(took) << "no candidate value changed the flag";
    if (flag.kind == FlagKind::kResult) {
      EXPECT_NE(changed->spec.config_text(), baseline);
      ++results;
    } else {
      EXPECT_EQ(changed->spec.config_text(), baseline);
      ++wall_times;
    }
  }
  EXPECT_EQ(results, 5);
  EXPECT_EQ(wall_times, 14);
}

TEST(RunSpec, UnclaimedArgumentsPassThroughInOrder) {
  TestSpec t;
  std::vector<char*> rest;
  t.spec.pass_unknown_to(&rest);
  // `rest` points into argv, so argv outlives it here.
  std::string args[] = {"run_spec_test", "--benchmark_filter=BM_x", "--threads", "2", "extra"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  t.spec.parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_STREQ(rest[0], "run_spec_test");
  EXPECT_STREQ(rest[1], "--benchmark_filter=BM_x");
  EXPECT_STREQ(rest[2], "extra");
  EXPECT_EQ(t.spec.threads, 2u);
}

TEST(RunSpec, UsageListsEveryFlag) {
  TestSpec t;
  const std::string usage = t.spec.usage();
  for (const RunSpec::Flag& flag : t.spec.flags())
    EXPECT_NE(usage.find("[--" + flag.name), std::string::npos) << flag.name;
  EXPECT_NE(usage.find("--algo fedavg|fedbuff"), std::string::npos);
}

TEST(RunSpec, WiresCheckpointsRpcAndTelemetryOnlyWhenAsked) {
  TestSpec off;
  parse(off.spec, {});
  fl::RunInputs inputs;
  EXPECT_EQ(off.spec.open_checkpoints(inputs), nullptr);
  EXPECT_EQ(off.spec.start_rpc(inputs), nullptr);
  EXPECT_EQ(inputs.leader.checkpoint_store, nullptr);
  EXPECT_EQ(inputs.resume_from, nullptr);
  EXPECT_EQ(inputs.rpc_leader, nullptr);
  EXPECT_FALSE(off.spec.telemetry.enabled());

  const auto dir = std::filesystem::temp_directory_path() / "flint_run_spec_test_ckpt";
  TestSpec on;
  parse(on.spec, {"--checkpoint-dir", dir.string(), "--checkpoint-every", "3", "--resume",
                  "--metrics-out", "m.jsonl"});
  auto store = on.spec.open_checkpoints(inputs);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(inputs.leader.checkpoint_store, store.get());
  EXPECT_EQ(inputs.leader.checkpoint_every_rounds, 3u);
  EXPECT_EQ(inputs.resume_from, store.get());
  const obs::TelemetryConfig& telemetry = on.spec.telemetry;
  EXPECT_TRUE(telemetry.metrics_enabled);
  EXPECT_FALSE(telemetry.tracing_enabled);
  EXPECT_EQ(telemetry.metrics_out, "m.jsonl");
  store.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace flint::core
