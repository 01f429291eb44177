// The fuzzer's own contracts: sampling and runs are pure functions of their
// seeds, normalize() establishes the documented invariants for every input,
// configs and repro cases survive a JSON round trip bit-exactly, the
// shrinker preserves the failing oracle while only ever simplifying, and a
// campaign's outcome does not depend on the worker thread count.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/config.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "util/json.hpp"

namespace wfd::fuzz {
namespace {

using util::Json;

FuzzConfig broken_fork_based_config() {
  FuzzConfig config;
  config.seed = 7;
  config.target = TargetKind::kBrokenForkBased;
  config.n = 3;
  config.steps = 40000;
  config.graph = GraphKind::kClique;
  config.scheduler = SchedulerKind::kRoundRobin;
  config.delay = DelayKind::kFixed;
  config.delay_min = 2;
  config.delay_max = 2;
  return config;
}

TEST(FuzzSampling, PureFunctionOfSeedAndIndex) {
  const std::vector<TargetKind> pool = legal_targets();
  for (std::uint64_t index : {0ull, 1ull, 17ull}) {
    const FuzzConfig a = sample_config(42, index, pool);
    const FuzzConfig b = sample_config(42, index, pool);
    EXPECT_EQ(config_to_json(a), config_to_json(b));
  }
  // Different indices (and different master seeds) must diverge somewhere.
  EXPECT_NE(config_to_json(sample_config(42, 0, pool)),
            config_to_json(sample_config(42, 1, pool)));
  EXPECT_NE(config_to_json(sample_config(42, 0, pool)),
            config_to_json(sample_config(43, 0, pool)));
}

TEST(FuzzSampling, DrawsOnlyFromThePool) {
  const std::vector<TargetKind> pool = {TargetKind::kScriptedDining};
  for (std::uint64_t index = 0; index < 32; ++index) {
    EXPECT_EQ(sample_config(9, index, pool).target,
              TargetKind::kScriptedDining);
  }
}

TEST(FuzzNormalize, EstablishesDocumentedInvariants) {
  FuzzConfig wild;
  wild.target = TargetKind::kScriptedDining;
  wild.n = 40;
  wild.steps = 10;
  wild.delay_min = 90;
  wild.delay_max = 3;
  wild.scheduler = SchedulerKind::kRoundRobin;
  wild.pauses.push_back({1, 100, 50});             // inverted window
  wild.crashes.push_back({0, 10});                 // manager host: dropped
  wild.crashes.push_back({99, 10});                // no such process
  wild.crashes.push_back({1, 5000000});            // clamped into first half
  wild.mistakes.push_back({2, 2, 0, 100});         // watcher == subject
  const FuzzConfig config = normalize(wild);
  EXPECT_LE(config.n, 8u);
  EXPECT_GE(config.n, 2u);
  EXPECT_GE(config.delay_max, config.delay_min);
  EXPECT_TRUE(config.pauses.empty());  // non-pausing scheduler
  ASSERT_EQ(config.crashes.size(), 1u);
  EXPECT_EQ(config.crashes[0].pid, 1u);
  EXPECT_LE(config.crashes[0].at, config.steps / 2);
  EXPECT_TRUE(config.mistakes.empty());
  // Runway: the run must extend past the convergence deadline.
  EXPECT_GT(config.steps, convergence_deadline(config));
  // Normalize must be idempotent, or replay-after-normalize would drift.
  EXPECT_EQ(config_to_json(normalize(config)), config_to_json(config));
}

TEST(FuzzNormalize, PairGraphRequiresTwoProcesses) {
  FuzzConfig config;
  config.target = TargetKind::kDining;
  config.n = 5;
  config.graph = GraphKind::kPair;
  EXPECT_EQ(normalize(config).graph, GraphKind::kPath);
  config.n = 2;
  EXPECT_EQ(normalize(config).graph, GraphKind::kPair);
}

TEST(FuzzNormalize, BrokenTargetsForceTheirDefect) {
  FuzzConfig config;
  config.target = TargetKind::kBrokenSingleInstance;
  config.member0_burst = 0;
  config.exclusive_from = 0;
  const FuzzConfig single = normalize(config);
  EXPECT_EQ(single.n, 2u);
  EXPECT_EQ(single.semantics, dining::BoxSemantics::kLockout);
  EXPECT_GE(single.member0_burst, 2u);
  EXPECT_GE(single.exclusive_from, 1u);
  EXPECT_TRUE(single.crashes.empty());

  config = FuzzConfig{};
  config.target = TargetKind::kBrokenForkBased;
  const FuzzConfig fork = normalize(config);
  EXPECT_EQ(fork.semantics, dining::BoxSemantics::kForkBased);
  EXPECT_GT(fork.exclusive_from, 0u);
  EXPECT_GE(fork.never_exit_member, 0);
  EXPECT_LT(fork.never_exit_member, static_cast<std::int32_t>(fork.n));
}

TEST(FuzzConfigJson, RoundTripsBitExactly) {
  FuzzConfig config = sample_config(123, 5, legal_targets());
  config.crashes.push_back({1, 777});
  config.mistakes.push_back({0, 1, 10, 500});
  const std::string text = config_to_json(config);
  FuzzConfig parsed;
  std::string error;
  ASSERT_TRUE(config_from_json(text, &parsed, &error)) << error;
  EXPECT_EQ(config_to_json(parsed), text);
}

TEST(FuzzReproJson, RoundTripsExpectedOutcome) {
  ReproCase repro;
  repro.config = normalize(broken_fork_based_config());
  // More significant digits than `<<` prints (6): they must come back as
  // the same doubles, not merely the same text.
  repro.config.geo_p = 0.46187419779114403;
  repro.config.loss_rate = 0.12345678901234567;
  repro.config.dup_rate = 0.098765432109876543;
  repro.oracle = "wx_safety";
  repro.at = 31337;
  repro.detail = "detail text with \"quotes\" and \\ backslash";
  const std::string text = repro_to_json(repro);
  ReproCase parsed;
  std::string error;
  ASSERT_TRUE(repro_from_json(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.oracle, repro.oracle);
  EXPECT_EQ(parsed.at, repro.at);
  EXPECT_EQ(parsed.detail, repro.detail);
  EXPECT_EQ(config_to_json(parsed.config), config_to_json(repro.config));
  EXPECT_EQ(parsed.config.geo_p, repro.config.geo_p);
  EXPECT_EQ(parsed.config.loss_rate, repro.config.loss_rate);
  EXPECT_EQ(parsed.config.dup_rate, repro.config.dup_rate);
}

TEST(FuzzJson, RejectsMalformedInput) {
  Json value;
  std::string error;
  EXPECT_FALSE(Json::parse("{\"a\": }", &value, &error));
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing", &value, &error));
  EXPECT_FALSE(Json::parse("", &value, &error));
  FuzzConfig config;
  EXPECT_FALSE(config_from_json("[1, 2, 3]", &config, &error));
}

// Regression: parse_value recursed with no depth limit, so a hostile
// hand-edited .repro of 100k open brackets overflowed the stack. Deep
// nesting must come back as a parse error, never a crash.
TEST(FuzzJson, HostileNestingIsAnErrorNotACrash) {
  Json value;
  std::string error;
  EXPECT_FALSE(Json::parse(std::string(100000, '['), &value, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  // Same through objects.
  std::string hostile;
  for (int i = 0; i < 100000; ++i) hostile += "{\"k\":";
  EXPECT_FALSE(Json::parse(hostile, &value, &error));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(FuzzJson, ReasonableNestingStaysAccepted) {
  std::string text(32, '[');
  text += "1";
  text += std::string(32, ']');
  Json value;
  std::string error;
  EXPECT_TRUE(Json::parse(text, &value, &error)) << error;
}

// Regression: duplicate object keys were silently appended, so find()
// (first match) returned the FIRST value while a writer round trip kept
// both. Last wins now, in place, with an optional warning per duplicate.
TEST(FuzzJson, DuplicateKeysLastWinsWithWarning) {
  Json value;
  std::string error;
  std::vector<std::string> warnings;
  ASSERT_TRUE(Json::parse(R"({"a":1,"b":2,"a":3})", &value, &error,
                          &warnings));
  ASSERT_EQ(value.members.size(), 2u);
  EXPECT_EQ(value.find("a")->as_u64(), 3u);
  EXPECT_EQ(value.find("b")->as_u64(), 2u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("duplicate key \"a\""), std::string::npos);
  // Without a warnings sink the parse still succeeds with last-wins.
  Json quiet;
  ASSERT_TRUE(Json::parse(R"({"a":1,"a":2})", &quiet, &error));
  EXPECT_EQ(quiet.find("a")->as_u64(), 2u);
}

TEST(FuzzRun, DeterministicAcrossInvocations) {
  const FuzzConfig config = sample_config(5, 2, legal_targets());
  const RunResult a = run_config(config);
  const RunResult b = run_config(config);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(FuzzShrink, PreservesOracleAndOnlySimplifies) {
  const FuzzConfig failing = normalize(broken_fork_based_config());
  const RunResult before = run_config(failing);
  ASSERT_FALSE(before.ok());
  const std::string oracle = before.primary()->oracle;

  const ShrinkOutcome outcome = shrink_case(failing, 80);
  EXPECT_EQ(outcome.repro.oracle, oracle);
  const FuzzConfig& shrunk = outcome.repro.config;
  EXPECT_LE(shrunk.n, failing.n);
  EXPECT_LE(shrunk.steps, failing.steps);
  EXPECT_LE(shrunk.crashes.size(), failing.crashes.size());
  // The recorded outcome is what the shrunk config actually produces.
  std::string why;
  EXPECT_TRUE(replay_case(outcome.repro, &why)) << why;
}

TEST(FuzzReplay, DetectsOutcomeDrift) {
  ReproCase repro = shrink_case(normalize(broken_fork_based_config()), 40).repro;
  std::string why;
  ASSERT_TRUE(replay_case(repro, &why)) << why;
  repro.at += 1;  // stored outcome no longer matches the run
  EXPECT_FALSE(replay_case(repro, &why));
  EXPECT_FALSE(why.empty());
}

TEST(FuzzCampaign, ThreadCountDoesNotChangeTheOutcome) {
  CampaignOptions options;
  options.master_seed = 11;
  options.runs = 6;
  options.shrink = false;
  options.targets = legal_targets();
  options.threads = 1;
  const CampaignResult sequential = run_fuzz_campaign(options);
  options.threads = 4;
  const CampaignResult parallel = run_fuzz_campaign(options);
  EXPECT_EQ(sequential.stats.executed, parallel.stats.executed);
  EXPECT_EQ(sequential.stats.failing, parallel.stats.failing);
  EXPECT_EQ(sequential.stats.corpus_size, parallel.stats.corpus_size);
  EXPECT_EQ(sequential.stats.total_steps, parallel.stats.total_steps);
}

TEST(FuzzShrink, AlreadyMinimalCaseComesBackUnchanged) {
  // Shrink to a fixed point, then shrink the fixed point again: a 1-minimal
  // case must survive a second pass bit-identically (ddmin is idempotent).
  const ShrinkOutcome first =
      shrink_case(normalize(broken_fork_based_config()), 120);
  ASSERT_TRUE(first.reproduced);
  const ShrinkOutcome second = shrink_case(first.repro.config, 120);
  ASSERT_TRUE(second.reproduced);
  EXPECT_EQ(config_to_json(second.repro.config),
            config_to_json(first.repro.config));
  EXPECT_EQ(second.repro.oracle, first.repro.oracle);
  EXPECT_EQ(second.accepted, 0u);  // nothing simpler still fails
}

TEST(FuzzShrink, NonReproducingInputFailsLoudly) {
  // A clean config handed to the shrinker must not delta-debug noise into a
  // bogus reproducer: reproduced == false, oracle "none".
  FuzzConfig clean = sample_config(5, 2, {TargetKind::kDining});
  const RunResult check = run_config(clean);
  ASSERT_TRUE(check.ok()) << check.primary()->oracle;
  const ShrinkOutcome outcome = shrink_case(clean, 40);
  EXPECT_FALSE(outcome.reproduced);
  EXPECT_EQ(outcome.repro.oracle, "none");
  EXPECT_EQ(outcome.accepted, 0u);
}

TEST(FuzzShrink, ReproJsonKeepsSchemaVersion) {
  const ShrinkOutcome outcome =
      shrink_case(normalize(broken_fork_based_config()), 40);
  ASSERT_TRUE(outcome.reproduced);
  const std::string text = repro_to_json(outcome.repro);
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  ReproCase reloaded;
  std::string error;
  ASSERT_TRUE(repro_from_json(text, &reloaded, &error)) << error;
  EXPECT_EQ(repro_to_json(reloaded), text);
}

TEST(FuzzReplayPath, DirectoryIsScannedRecursivelyAndFullyReported) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "wfd_fuzz_replay_path_test";
  fs::remove_all(dir);
  fs::create_directories(dir / "nested");

  const ShrinkOutcome good =
      shrink_case(normalize(broken_fork_based_config()), 40);
  ASSERT_TRUE(good.reproduced);
  ReproCase drifted = good.repro;
  drifted.at += 1;  // stored outcome no longer matches the run
  ASSERT_TRUE(save_repro_file((dir / "a_good.repro").string(), good.repro));
  ASSERT_TRUE(
      save_repro_file((dir / "nested" / "drifted.repro").string(), drifted));
  {
    std::ofstream garbage(dir / "nested" / "garbage.repro");
    garbage << "{not json";
  }

  const ReplayReport report = replay_path(dir.string());
  // All three files found (recursion), all three reported (no early stop).
  ASSERT_EQ(report.items.size(), 3u);
  EXPECT_EQ(report.passed, 1u);
  EXPECT_EQ(report.failed, 2u);
  EXPECT_FALSE(report.all_ok());
  // Sorted-path order: a_good first, then the nested pair.
  EXPECT_TRUE(report.items[0].ok);
  EXPECT_FALSE(report.items[1].ok);
  EXPECT_FALSE(report.items[1].why.empty());
  EXPECT_FALSE(report.items[2].ok);
  fs::remove_all(dir);
}

TEST(FuzzReplayPath, EmptyDirectoryIsAFailingReport) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "wfd_fuzz_replay_empty";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const ReplayReport report = replay_path(dir.string());
  EXPECT_TRUE(report.items.empty());
  EXPECT_FALSE(report.all_ok());
  fs::remove_all(dir);
}

TEST(FuzzCampaign, BrokenPoolYieldsAShrunkReproducer) {
  CampaignOptions options;
  options.master_seed = 1;
  options.runs = 2;
  options.targets = {TargetKind::kBrokenForkBased};
  options.max_shrink_attempts = 60;
  const CampaignResult campaign = run_fuzz_campaign(options);
  EXPECT_EQ(campaign.stats.failing, 2u);
  ASSERT_FALSE(campaign.repros.empty());
  EXPECT_EQ(campaign.repros[0].oracle, "wx_safety");
  std::string why;
  EXPECT_TRUE(replay_case(campaign.repros[0], &why)) << why;
}

}  // namespace
}  // namespace wfd::fuzz
