// The coverage-guided campaign's soundness contracts, pinned hard:
//
//  * runway milestone grading is bit-identical to cold replay — a run split
//    into milestones produces the same signature, stats, failures, retained
//    trace and obs counters as running the variant from t=0, on every
//    conformance vector, and a runway family drawn from the mutator grades
//    each variant exactly as a cold run does;
//  * a FamilyResult crosses the --jobs shard wire with its config exact;
//  * the corpus is order-independent — merging shard directories is a file
//    union and loading admits the same set regardless of who wrote first;
//  * campaign results are a pure function of the options, independent of
//    --jobs; and
//  * coverage guidance earns its keep: at an equal run budget the evolved
//    campaign reaches strictly more feature-hash buckets than swarm
//    sampling (the tentpole's acceptance criterion).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/evolve.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutators.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/snapshot.hpp"
#include "obs/metrics.hpp"
#include "scenario/adapters.hpp"
#include "scenario/scenario.hpp"
#include "sim/rng.hpp"

namespace wfd::fuzz {
namespace {

std::vector<std::string> vector_files() {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(WFD_VECTOR_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".scenario.json") != std::string::npos) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

struct CapturedRun {
  RunResult result;
  std::vector<sim::Event> events;
  std::string counters;  ///< registry snapshot, canonical text form
};

std::string counters_text(const obs::Registry& registry) {
  std::string text;
  for (const auto& [name, value] : registry.snapshot().sorted_counters()) {
    text += name + "=" + std::to_string(value) + "\n";
  }
  return text;
}

/// Cold reference run: full trace retention, bound registry.
CapturedRun run_cold_captured(const FuzzConfig& config) {
  obs::Registry registry;
  RunCapture capture;
  capture.metrics = &registry;
  CapturedRun out;
  out.result = run_config(config, capture);
  out.events = std::move(capture.events);
  out.counters = counters_text(registry);
  return out;
}

/// The same run split into milestone stops via ConfigRun::advance_to.
CapturedRun run_split_captured(const FuzzConfig& config,
                               const std::vector<sim::Time>& stops) {
  obs::Registry registry;
  RunCapture capture;
  capture.metrics = &registry;
  CapturedRun out;
  ConfigRun run(config, &capture);
  for (const sim::Time stop : stops) run.advance_to(stop);
  run.advance_to(config.steps);
  out.result = run.grade(config);
  run.fill_capture();
  out.events = std::move(capture.events);
  out.counters = counters_text(registry);
  return out;
}

void expect_same_stats(const RunStats& a, const RunStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << label;
  EXPECT_EQ(a.messages_delivered, b.messages_delivered) << label;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << label;
  EXPECT_EQ(a.messages_lost, b.messages_lost) << label;
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated) << label;
  EXPECT_EQ(a.messages_retransmitted, b.messages_retransmitted) << label;
  EXPECT_EQ(a.in_transit, b.in_transit) << label;
  EXPECT_EQ(a.crashes, b.crashes) << label;
  EXPECT_EQ(a.total_meals, b.total_meals) << label;
  EXPECT_EQ(a.exclusion_violations, b.exclusion_violations) << label;
  EXPECT_EQ(a.late_violations, b.late_violations) << label;
  EXPECT_EQ(a.last_violation, b.last_violation) << label;
  EXPECT_EQ(a.detector_flips, b.detector_flips) << label;
  EXPECT_EQ(a.late_suspicion_episodes, b.late_suspicion_episodes) << label;
  EXPECT_EQ(a.deadline, b.deadline) << label;
  EXPECT_EQ(a.wait_bound, b.wait_bound) << label;
}

void expect_same_run(const CapturedRun& cold, const CapturedRun& split,
                     const std::string& label) {
  EXPECT_EQ(cold.result.signature, split.result.signature) << label;
  expect_same_stats(cold.result.stats, split.result.stats, label);
  ASSERT_EQ(cold.result.failures.size(), split.result.failures.size())
      << label;
  for (std::size_t i = 0; i < cold.result.failures.size(); ++i) {
    EXPECT_EQ(cold.result.failures[i].oracle, split.result.failures[i].oracle)
        << label;
    EXPECT_EQ(cold.result.failures[i].at, split.result.failures[i].at)
        << label;
    EXPECT_EQ(cold.result.failures[i].detail,
              split.result.failures[i].detail)
        << label;
  }
  ASSERT_EQ(cold.events.size(), split.events.size()) << label;
  for (std::size_t i = 0; i < cold.events.size(); ++i) {
    const sim::Event& x = cold.events[i];
    const sim::Event& y = split.events[i];
    const bool same = x.time == y.time && x.kind == y.kind &&
                      x.pid == y.pid && x.a == y.a && x.b == y.b &&
                      x.c == y.c;
    ASSERT_TRUE(same) << label << " event " << i << ": "
                      << sim::to_string(x) << " vs " << sim::to_string(y);
  }
  EXPECT_EQ(cold.counters, split.counters) << label;
}

TEST(EvolveSnapshot, ResumeIsBitIdenticalToColdOnEveryConformanceVector) {
  const std::vector<std::string> files = vector_files();
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    scenario::Scenario scenario;
    std::string error;
    ASSERT_TRUE(scenario::load_scenario_file(file, &scenario, &error))
        << file << ": " << error;
    const FuzzConfig config = normalize(scenario::to_fuzz_config(scenario));
    const std::vector<sim::Time> stops = {config.steps / 3,
                                          2 * config.steps / 3};
    expect_same_run(run_cold_captured(config),
                    run_split_captured(config, stops), scenario.name);
  }
}

/// Find a deterministic runway family by walking the mutator over swarm
/// parents with a fixed rng (the same path a campaign takes).
MutationPlan find_runway_family() {
  sim::Rng rng(42);
  CoverageMap coverage;
  for (int i = 0; i < 400; ++i) {
    const FuzzConfig parent =
        normalize(sample_config(7, i, legal_targets()));
    MutationPlan plan = mutate(parent, 6, rng, coverage, {});
    if (plan.runway_family && plan.variants.size() >= 2) return plan;
  }
  return {};
}

TEST(EvolveSnapshot, RunwayFamilyEqualsColdReplay) {
  const MutationPlan plan = find_runway_family();
  ASSERT_GE(plan.variants.size(), 2u) << "no runway family found";

  SnapshotStats stats;
  const std::vector<FamilyResult> family = run_family(plan, &stats);
  ASSERT_EQ(family.size(), plan.variants.size());
  EXPECT_EQ(stats.milestone_runs, plan.variants.size() - 1)
      << "milestone path never engaged";

  for (std::size_t i = 0; i < family.size(); ++i) {
    const FamilyResult cold = cold_family_run(plan.variants[i]);
    const std::string label = "variant " + std::to_string(i);
    EXPECT_EQ(family[i].result.signature, cold.result.signature) << label;
    expect_same_stats(family[i].result.stats, cold.result.stats, label);
    ASSERT_EQ(family[i].result.failures.size(), cold.result.failures.size())
        << label;
    for (std::size_t f = 0; f < cold.result.failures.size(); ++f) {
      EXPECT_EQ(family[i].result.failures[f].oracle,
                cold.result.failures[f].oracle)
          << label;
      EXPECT_EQ(family[i].result.failures[f].at, cold.result.failures[f].at)
          << label;
      EXPECT_EQ(family[i].result.failures[f].detail,
                cold.result.failures[f].detail)
          << label;
    }
    EXPECT_EQ(family[i].buckets, cold.buckets) << label;
  }
}

TEST(EvolveWire, FamilyResultKeepsConfigDoublesExact) {
  // Values with more significant digits than `<<` prints (6), so a config
  // rendered at that precision comes back as a different double.
  FuzzConfig config = sample_config(17, 3, legal_targets());
  config.geo_p = 0.46187419779114403;
  config.loss_rate = 0.12345678901234567;
  config.dup_rate = 0.098765432109876543;
  const FamilyResult sent = cold_family_run(config);

  std::string bytes;
  wire::put_family_result(&bytes, sent);
  wire::Reader reader(bytes);
  FamilyResult received;
  ASSERT_TRUE(reader.get_family_result(&received));
  EXPECT_TRUE(reader.at_end());
  EXPECT_EQ(received.config.geo_p, sent.config.geo_p);
  EXPECT_EQ(received.config.loss_rate, sent.config.loss_rate);
  EXPECT_EQ(received.config.dup_rate, sent.config.dup_rate);
  EXPECT_EQ(received.result.signature, sent.result.signature);
  EXPECT_EQ(received.buckets, sent.buckets);
}

TEST(EvolveCoverage, FeatureHashIsStableAcrossTransitsAndCaptureModes) {
  // Same (config, seed) -> same feature hash, however the run is
  // instrumented. The signature is the fold of run_features.
  for (int i = 0; i < 6; ++i) {
    const FuzzConfig config =
        normalize(sample_config(13, i, legal_targets()));
    const RunResult plain = run_config(config);
    const CapturedRun captured = run_cold_captured(config);
    EXPECT_EQ(plain.signature, captured.result.signature);
    // Coverage buckets are a pure function of (config, result) too.
    EXPECT_EQ(coverage_buckets(config, plain),
              coverage_buckets(config, captured.result));
  }
}

CorpusEntry make_entry(std::uint64_t seed_index) {
  const FuzzConfig config =
      normalize(sample_config(21, seed_index, legal_targets()));
  const FamilyResult run = cold_family_run(config);
  CorpusEntry entry;
  entry.config = run.config;
  entry.signature = run.result.signature;
  entry.buckets = run.buckets;
  return entry;
}

TEST(EvolveCorpus, EntryJsonRoundTripsBitExactly) {
  CorpusEntry entry = make_entry(0);
  entry.novel_bits = 17;
  const std::string text = corpus_entry_to_json(entry);
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  CorpusEntry reloaded;
  std::string error;
  ASSERT_TRUE(corpus_entry_from_json(text, &reloaded, &error)) << error;
  EXPECT_EQ(reloaded.signature, entry.signature);
  EXPECT_EQ(reloaded.buckets, entry.buckets);
  EXPECT_EQ(config_to_json(reloaded.config), config_to_json(entry.config));
  EXPECT_EQ(corpus_entry_to_json(reloaded), text);
}

TEST(EvolveCorpus, MergeIsOrderIndependent) {
  namespace fs = std::filesystem;
  const fs::path base = fs::temp_directory_path() / "wfd_fuzz_corpus_merge";
  fs::remove_all(base);

  // Two shards with an overlapping entry, merged in both orders.
  const std::vector<CorpusEntry> shard_a = {make_entry(0), make_entry(1)};
  const std::vector<CorpusEntry> shard_b = {make_entry(1), make_entry(2),
                                            make_entry(3)};
  const auto save_shard = [](const std::vector<CorpusEntry>& entries,
                             const std::string& dir) {
    Corpus corpus;
    CoverageMap map;
    for (const CorpusEntry& entry : entries) corpus.admit(entry, map);
    std::string error;
    ASSERT_TRUE(corpus.save(dir, &error)) << error;
  };

  const std::string ab = (base / "ab").string();
  const std::string ba = (base / "ba").string();
  save_shard(shard_a, ab);
  save_shard(shard_b, ab);  // union: content-addressed files never clobber
  save_shard(shard_b, ba);
  save_shard(shard_a, ba);

  const auto load_signatures = [](const std::string& dir) {
    Corpus corpus;
    CoverageMap map;
    std::string error;
    corpus.load(dir, map, &error);
    EXPECT_TRUE(error.empty()) << error;
    std::set<std::uint64_t> signatures;
    for (const CorpusEntry& entry : corpus.entries()) {
      signatures.insert(entry.signature);
    }
    return std::make_pair(signatures, map.bits());
  };
  const auto [sig_ab, bits_ab] = load_signatures(ab);
  const auto [sig_ba, bits_ba] = load_signatures(ba);
  EXPECT_EQ(sig_ab, sig_ba);
  EXPECT_EQ(bits_ab, bits_ba);
  EXPECT_EQ(sig_ab.size(), 4u);  // the union, duplicates collapsed
  fs::remove_all(base);
}

TEST(EvolveCorpus, TruncatedEntrySurvivesReloadRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "wfd_fuzz_corpus_corrupt";
  fs::remove_all(dir);

  // A healthy corpus on disk...
  {
    Corpus corpus;
    CoverageMap map;
    for (std::uint64_t i = 0; i < 3; ++i) corpus.admit(make_entry(i), map);
    std::string error;
    ASSERT_TRUE(corpus.save(dir.string(), &error)) << error;
  }
  // ...plus the two artifacts of a writer killed mid-save: a truncated
  // entry that DID reach its final name (the pre-rename world this bugfix
  // retires, still possible via a torn disk), and an orphaned .tmp the
  // atomic path leaves behind when the kill lands before rename().
  const std::string full = corpus_entry_to_json(make_entry(7));
  {
    std::ofstream torn(dir / "00deadbeef000000.json", std::ios::binary);
    torn << full.substr(0, full.size() / 2);
  }
  {
    std::ofstream orphan(dir / "0123456789abcdef.json.4242.tmp",
                         std::ios::binary);
    orphan << full.substr(0, 10);
  }

  // Reload: the three healthy entries come back, the torn file is skipped
  // and counted, the .tmp is invisible to the *.json scan.
  Corpus reloaded;
  CoverageMap map;
  std::string error;
  EXPECT_EQ(reloaded.load(dir.string(), map, &error), 3u);
  EXPECT_EQ(reloaded.skipped_corrupt(), 1u);
  EXPECT_NE(error.find("00deadbeef000000"), std::string::npos) << error;
  std::set<std::uint64_t> signatures;
  for (const CorpusEntry& entry : reloaded.entries()) {
    signatures.insert(entry.signature);
  }
  EXPECT_EQ(signatures.size(), 3u);

  // Round trip: re-saving into a fresh directory carries every healthy
  // entry across unchanged (and nothing else).
  const fs::path copy = fs::temp_directory_path() / "wfd_fuzz_corpus_copy";
  fs::remove_all(copy);
  ASSERT_TRUE(reloaded.save(copy.string(), &error)) << error;
  Corpus round;
  CoverageMap map2;
  EXPECT_EQ(round.load(copy.string(), map2, &error), 3u);
  EXPECT_EQ(round.skipped_corrupt(), 0u);
  std::set<std::uint64_t> round_signatures;
  for (const CorpusEntry& entry : round.entries()) {
    round_signatures.insert(entry.signature);
  }
  EXPECT_EQ(round_signatures, signatures);
  // Atomic saves leave no .tmp droppings behind on the success path.
  for (const auto& file : fs::directory_iterator(copy)) {
    EXPECT_EQ(file.path().extension(), ".json") << file.path();
  }
  fs::remove_all(dir);
  fs::remove_all(copy);
}

EvolveOptions small_campaign() {
  EvolveOptions options;
  options.master_seed = 5;
  options.generations = 3;
  options.generation_size = 8;
  options.max_family = 4;
  options.shrink = false;
  return options;
}

TEST(EvolveCampaign, JobCountDoesNotChangeTheOutcome) {
  EvolveOptions options = small_campaign();
  options.jobs = 1;
  const EvolveResult one = run_evolve_campaign(options);
  options.jobs = 2;
  const EvolveResult two = run_evolve_campaign(options);
  options.jobs = 8;
  const EvolveResult eight = run_evolve_campaign(options);

  // The campaign grades at least one runway family from one engine, so the
  // workers' milestone results cross the shard wire too.
  EXPECT_GT(one.stats.milestone_runs, 0u);
  for (const EvolveResult* other : {&one, &two, &eight}) {
    EXPECT_EQ(one.stats.executed, other->stats.executed);
    EXPECT_EQ(one.stats.failing, other->stats.failing);
    EXPECT_EQ(one.stats.novel, other->stats.novel);
    EXPECT_EQ(one.stats.coverage_bits, other->stats.coverage_bits);
    EXPECT_EQ(one.stats.corpus_entries, other->stats.corpus_entries);
    EXPECT_EQ(one.stats.milestone_runs, other->stats.milestone_runs);
    EXPECT_EQ(other->stats.cold_runs,
              other->stats.executed - other->stats.milestone_runs);
    EXPECT_EQ(one.corpus_signatures, other->corpus_signatures);
    EXPECT_EQ(one.repros.size(), other->repros.size());
  }
}

TEST(EvolveCampaign, CoverageGuidanceBeatsSwarmAtEqualRunBudget) {
  // The tentpole's acceptance criterion: at an equal number of graded runs,
  // the evolved campaign's coverage map strictly dominates swarm sampling's
  // bucket count.
  EvolveOptions options;
  options.master_seed = 9;
  options.generations = 5;
  options.generation_size = 12;
  options.max_family = 5;
  options.shrink = false;
  const EvolveResult evolved = run_evolve_campaign(options);
  ASSERT_GT(evolved.stats.executed, 0u);

  CoverageMap swarm;
  for (std::uint64_t i = 0; i < evolved.stats.executed; ++i) {
    const FamilyResult run = cold_family_run(
        sample_config(options.master_seed, i, legal_targets()));
    swarm.add(run.buckets);
  }
  EXPECT_GT(evolved.stats.coverage_bits, swarm.bits())
      << "coverage guidance must beat swarm at " << evolved.stats.executed
      << " runs";
}

TEST(EvolveCampaign, BrokenTargetYieldsAReplayableRepro) {
  EvolveOptions options;
  options.master_seed = 3;
  options.generations = 2;
  options.generation_size = 6;
  options.max_family = 3;
  options.targets = {TargetKind::kBrokenForkBased};
  options.max_shrink_attempts = 60;
  const EvolveResult campaign = run_evolve_campaign(options);
  EXPECT_GT(campaign.stats.failing, 0u);
  ASSERT_FALSE(campaign.repros.empty());
  for (const ReproCase& repro : campaign.repros) {
    std::string why;
    EXPECT_TRUE(replay_case(repro, &why)) << why;
  }
}

TEST(EvolveCampaign, CorpusDirectoryPersistsAndReloads) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "wfd_fuzz_evolve_corpus";
  fs::remove_all(dir);

  EvolveOptions options = small_campaign();
  options.corpus_dir = dir.string();
  const EvolveResult first = run_evolve_campaign(options);
  EXPECT_GT(first.stats.corpus_entries, 0u);

  // A second campaign over the saved corpus starts from its coverage: every
  // saved signature is already known, so the reloaded corpus seeds the
  // parent pool instead of re-counting the same shapes as novel.
  const EvolveResult second = run_evolve_campaign(options);
  std::set<std::uint64_t> first_signatures(first.corpus_signatures.begin(),
                                           first.corpus_signatures.end());
  for (const std::uint64_t signature : first_signatures) {
    EXPECT_TRUE(std::binary_search(second.corpus_signatures.begin(),
                                   second.corpus_signatures.end(), signature));
  }
  EXPECT_GE(second.corpus_signatures.size(), first.corpus_signatures.size());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wfd::fuzz
