// The observability layer end to end: the metrics registry's single-writer
// shard discipline, the Perfetto trace_event exporter (including the
// exported-counts == registry-counters consistency invariant), the mc
// engine's metrics/span instrumentation (and that it never perturbs the
// exploration), campaign progress reporting, and a replay of every corpus
// .repro through the capture + export + validate path.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "harness/campaign.hpp"
#include "mc/gkk_model.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"

namespace wfd {
namespace {

// --- the registry ----------------------------------------------------------

TEST(Registry, CountersAccumulateAcrossLiveAndRetiredScopes) {
  obs::Registry registry;
  const obs::Registry::Id id = registry.counter("test.counter");
  {
    obs::Scope retired(registry);
    retired.add(id, 5);
  }  // retires: totals fold into the registry
  obs::Scope live(registry);
  live.add(id);
  live.add(id, 2);
  EXPECT_EQ(registry.snapshot().counter_value("test.counter"), 8u);
}

TEST(Registry, SameNameSameKindIsTheSameMetric) {
  obs::Registry registry;
  const obs::Registry::Id a = registry.counter("shared");
  const obs::Registry::Id b = registry.counter("shared");
  EXPECT_EQ(a, b);
  obs::Scope scope_a(registry);
  obs::Scope scope_b(registry);
  scope_a.add(a, 3);
  scope_b.add(b, 4);
  const obs::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 7u);
}

TEST(Registry, HistogramBucketsMeanAndPercentiles) {
  obs::Registry registry;
  const obs::Registry::Id id = registry.histogram("test.histo");
  obs::Scope scope(registry);
  scope.observe(id, 0);  // bucket 0
  scope.observe(id, 1);  // bucket 1: [1, 2)
  scope.observe(id, 3);  // bucket 2: [2, 4)
  scope.observe(id, 100);
  const obs::Snapshot snap = registry.snapshot();
  const obs::Snapshot::Histogram* h = snap.find_histogram("test.histo");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_EQ(h->sum, 104u);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[1], 1u);
  EXPECT_EQ(h->buckets[2], 1u);
  EXPECT_DOUBLE_EQ(h->mean(), 26.0);
  EXPECT_EQ(h->percentile(0.0), 0u);
  // p99 lands in 100's bucket ([64, 128) -> upper bound 127).
  EXPECT_EQ(h->percentile(0.99), 127u);
  EXPECT_LE(h->percentile(0.5), h->percentile(0.99));
}

TEST(Registry, GaugeLastWriteWins) {
  obs::Registry registry;
  const obs::Registry::Id id = registry.gauge("test.gauge");
  registry.set_gauge(id, 1.5);
  registry.set_gauge(id, 42.25);
  const obs::Snapshot snap = registry.snapshot();
  const obs::Snapshot::Gauge* g = snap.find_gauge("test.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 42.25);
}

TEST(Registry, ConcurrentWritersOneScopeEach) {
  obs::Registry registry;
  const obs::Registry::Id id = registry.counter("test.parallel");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&registry, id] {
      obs::Scope scope(registry);
      for (std::uint64_t i = 0; i < kPerThread; ++i) scope.add(id);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(registry.snapshot().counter_value("test.parallel"),
            kThreads * kPerThread);
}

TEST(Registry, CellBudgetExhaustionThrows) {
  obs::Registry registry;
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) {
          registry.histogram("histo." + std::to_string(i));
        }
      },
      std::length_error);
}

TEST(Registry, SnapshotToJsonIsWellFormed) {
  obs::Registry registry;
  const obs::Registry::Id c = registry.counter("c");
  const obs::Registry::Id h = registry.histogram("h");
  registry.set_gauge(registry.gauge("g"), 0.5);
  obs::Scope scope(registry);
  scope.add(c, 7);
  scope.observe(h, 16);
  const std::string json = registry.snapshot().to_json();
  util::Json doc;
  std::string error;
  ASSERT_TRUE(util::Json::parse(json, &doc, &error)) << error << ": " << json;
  EXPECT_EQ(doc.find("c")->as_u64(), 7u);
  EXPECT_DOUBLE_EQ(doc.find("g")->as_double(), 0.5);
  const util::Json* histo = doc.find("h");
  ASSERT_NE(histo, nullptr);
  EXPECT_EQ(histo->find("count")->as_u64(), 1u);
  EXPECT_EQ(histo->find("sum")->as_u64(), 16u);
}

// --- the Perfetto exporter -------------------------------------------------

std::vector<sim::Event> synthetic_events() {
  using sim::EventKind;
  return {
      {1, EventKind::kStep, 0, 0, 0, 0},
      {2, EventKind::kSend, 0, 1, 7, 3},
      {4, EventKind::kDeliver, 1, 0, 7, 3},
      // diner on pid 1, tag 9: thinking(0) -> hungry(1) at t=5,
      // hungry -> eating(2) at t=8.
      {5, EventKind::kDinerTransition, 1, 9, 0, 1},
      {8, EventKind::kDinerTransition, 1, 9, 1, 2},
      {9, EventKind::kCrash, 2, 0, 0, 0},
  };
}

TEST(Perfetto, OneJsonEventPerInputEventAndCountsMatch) {
  std::ostringstream out;
  const obs::ExportStats stats = obs::write_perfetto(synthetic_events(), out);
  EXPECT_EQ(stats.emitted, 6u);
  EXPECT_EQ(stats.filtered, 0u);
  EXPECT_EQ(stats.by_kind.at("diner"), 2u);
  std::map<std::string, std::uint64_t> expected = {
      {"step", 1}, {"send", 1}, {"deliver", 1}, {"diner", 2}, {"crash", 1}};
  std::string why;
  EXPECT_TRUE(obs::validate_trace_json(out.str(), &expected, &why)) << why;
}

TEST(Perfetto, CountMismatchIsDetected) {
  std::ostringstream out;
  obs::write_perfetto(synthetic_events(), out);
  std::map<std::string, std::uint64_t> wrong = {{"step", 2}};
  std::string why;
  EXPECT_FALSE(obs::validate_trace_json(out.str(), &wrong, &why));
  EXPECT_NE(why.find("count mismatch"), std::string::npos) << why;
}

TEST(Perfetto, FilterSelectsByKindPidAndWindow) {
  const std::vector<sim::Event> events = synthetic_events();
  {
    obs::TraceEventFilter filter;
    filter.kinds = {static_cast<std::uint8_t>(sim::EventKind::kDinerTransition)};
    std::ostringstream out;
    const obs::ExportStats stats = obs::write_perfetto(events, out, filter);
    EXPECT_EQ(stats.emitted, 2u);
    EXPECT_EQ(stats.filtered, 4u);
    std::string why;
    EXPECT_TRUE(obs::validate_trace_json(out.str(), nullptr, &why)) << why;
  }
  {
    obs::TraceEventFilter filter;
    filter.pids = {0};
    std::ostringstream out;
    EXPECT_EQ(obs::write_perfetto(events, out, filter).emitted, 2u);
  }
  {
    obs::TraceEventFilter filter;
    filter.from = 4;
    filter.until = 8;
    std::ostringstream out;
    EXPECT_EQ(obs::write_perfetto(events, out, filter).emitted, 3u);
  }
  EXPECT_TRUE(obs::TraceEventFilter{}.pass_all());
}

TEST(Perfetto, SpanLogExportsAsCompleteEvents) {
  obs::SpanLog log;
  log.record("level 0", 0, 0.0, 1.5, 10);
  log.record("level 1", 0, 1.5, 2.0, 30);
  log.record("analyze", 0, 3.5, 0.5, 40);
  std::ostringstream out;
  const obs::ExportStats stats = obs::write_perfetto_spans(log, out);
  EXPECT_EQ(stats.emitted, 3u);
  std::string why;
  EXPECT_TRUE(obs::validate_trace_json(out.str(), nullptr, &why)) << why;
}

TEST(Perfetto, ExpectedCountsPulledFromSnapshot) {
  obs::Registry registry;
  obs::Scope scope(registry);
  scope.add(registry.counter("sim.events.step"), 11);
  scope.add(registry.counter("sim.events.diner"), 3);
  scope.add(registry.counter("unrelated.counter"), 5);
  const std::map<std::string, std::uint64_t> counts =
      obs::expected_counts_from(registry.snapshot());
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at("step"), 11u);
  EXPECT_EQ(counts.at("diner"), 3u);
}

// --- capture + export end to end (the acceptance invariant) ----------------

// A captured run's exported document must hold exactly as many events per
// kind as the metrics registry counted during the same run.
TEST(ObsEndToEnd, ExportCountsEqualRegistryCounters) {
  fuzz::FuzzConfig config;
  config.target = fuzz::TargetKind::kDining;
  config.n = 5;
  config.seed = 424242;
  config.steps = 20000;

  obs::Registry registry;
  fuzz::RunCapture capture;
  capture.metrics = &registry;
  fuzz::run_config(config, capture);
  ASSERT_FALSE(capture.events.empty());
  ASSERT_EQ(capture.truncated, 0u);

  std::ostringstream out;
  obs::write_perfetto(capture.events, out);
  std::map<std::string, std::uint64_t> expected =
      obs::expected_counts_from(registry.snapshot());
  ASSERT_FALSE(expected.empty());
  std::string why;
  EXPECT_TRUE(obs::validate_trace_json(out.str(), &expected, &why)) << why;
}

// Capturing must never change the run itself.
TEST(ObsEndToEnd, CaptureDoesNotPerturbTheRun) {
  const fuzz::FuzzConfig config = fuzz::sample_config(3, 1, {});
  const fuzz::RunResult plain = fuzz::run_config(config);
  obs::Registry registry;
  fuzz::RunCapture capture;
  capture.metrics = &registry;
  const fuzz::RunResult captured = fuzz::run_config(config, capture);
  EXPECT_EQ(plain.signature, captured.signature);
  EXPECT_EQ(plain.stats.steps, captured.stats.steps);
  EXPECT_EQ(plain.stats.messages_sent, captured.stats.messages_sent);
  EXPECT_EQ(plain.failures.size(), captured.failures.size());
  // And the engine's own counters agree with the graded stats.
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("sim.steps"), captured.stats.steps);
  EXPECT_EQ(snap.counter_value("sim.sent"), captured.stats.messages_sent);
  EXPECT_EQ(snap.counter_value("sim.delivered"),
            captured.stats.messages_delivered);
}

// Replay every corpus case through the capture + export + validate path —
// the wfd_trace export pipeline over the checked-in regression configs.
TEST(ObsEndToEnd, CorpusReplaysExportValidTraces) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(WFD_CORPUS_DIR)) {
    if (entry.path().extension() == ".repro") {
      files.push_back(entry.path().string());
    }
  }
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    fuzz::ReproCase repro;
    std::string error;
    ASSERT_TRUE(fuzz::load_repro_file(file, &repro, &error))
        << file << ": " << error;
    obs::Registry registry;
    fuzz::RunCapture capture;
    capture.metrics = &registry;
    fuzz::run_config(repro.config, capture);
    ASSERT_EQ(capture.truncated, 0u) << file;
    std::ostringstream out;
    const obs::ExportStats stats = obs::write_perfetto(capture.events, out);
    EXPECT_EQ(stats.emitted, capture.events.size()) << file;
    std::map<std::string, std::uint64_t> expected =
        obs::expected_counts_from(registry.snapshot());
    std::string why;
    EXPECT_TRUE(obs::validate_trace_json(out.str(), &expected, &why))
        << file << ": " << why;
  }
}

// --- the mc engine's instrumentation ---------------------------------------

TEST(McObs, CountersMatchResultAndSpansCoverEveryLevel) {
  obs::Registry registry;
  obs::SpanLog spans;
  mc::CheckOptions options;
  options.threads = 2;
  options.metrics = &registry;
  options.spans = &spans;
  const mc::CheckResult result =
      mc::check_gkk(mc::GkkBoxSemantics::kLockout, options);
  ASSERT_TRUE(result.ok()) << result.counterexample;

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("mc.states"), result.states);
  EXPECT_EQ(snap.counter_value("mc.transitions"), result.transitions);
  EXPECT_EQ(snap.counter_value("mc.levels"), result.depth + 1);
  const obs::Snapshot::Histogram* rate =
      snap.find_histogram("mc.level_states_per_sec");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->count, result.depth + 1);
  const obs::Snapshot::Histogram* barrier =
      snap.find_histogram("mc.barrier_wait_us");
  ASSERT_NE(barrier, nullptr);
  EXPECT_GT(barrier->count, 0u);
  const obs::Snapshot::Gauge* load = snap.find_gauge("mc.seen_load_pct");
  ASSERT_NE(load, nullptr);
  EXPECT_GT(load->value, 0.0);

  // One span per BFS level plus the analyze span, exportable as-is.
  ASSERT_EQ(spans.spans.size(), result.depth + 2);
  EXPECT_EQ(spans.spans.front().name, "level 0");
  EXPECT_EQ(spans.spans.back().name, "analyze");
  std::ostringstream out;
  obs::write_perfetto_spans(spans, out);
  std::string why;
  EXPECT_TRUE(obs::validate_trace_json(out.str(), nullptr, &why)) << why;
}

// The frontier gauge mirrors CheckResult::frontier_peak_bytes, which is 4
// bytes a code over the largest two consecutive levels: a level and the
// codes found from it are resident together. The level sizes come from the
// level spans; the last level pairs with the empty one after it.
TEST(McObs, FrontierGaugesMatchResult) {
  obs::Registry registry;
  obs::SpanLog spans;
  mc::CheckOptions options;
  options.threads = 2;
  options.metrics = &registry;
  options.spans = &spans;
  const mc::CheckResult result =
      mc::check_gkk(mc::GkkBoxSemantics::kLockout, options);
  ASSERT_TRUE(result.ok()) << result.counterexample;
  const obs::Snapshot snap = registry.snapshot();
  const obs::Snapshot::Gauge* peak = snap.find_gauge("mc.frontier_peak_bytes");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->value, static_cast<double>(result.frontier_peak_bytes));

  std::uint64_t widest_pair = 0;
  std::uint64_t previous = 0;
  for (const obs::Span& span : spans.spans) {
    if (span.name.rfind("level ", 0) != 0) continue;
    widest_pair = std::max(widest_pair, previous + span.arg);
    previous = span.arg;
  }
  widest_pair = std::max(widest_pair, previous);
  EXPECT_GT(widest_pair, 1u);
  EXPECT_EQ(result.frontier_peak_bytes, 4 * widest_pair);
}

TEST(McObs, InstrumentationNeverChangesTheExploration) {
  const mc::CheckResult plain = mc::check_gkk(mc::GkkBoxSemantics::kForkBased);
  obs::Registry registry;
  obs::SpanLog spans;
  mc::CheckOptions options;
  options.metrics = &registry;
  options.spans = &spans;
  const mc::CheckResult traced =
      mc::check_gkk(mc::GkkBoxSemantics::kForkBased, options);
  EXPECT_EQ(traced.states, plain.states);
  EXPECT_EQ(traced.transitions, plain.transitions);
  EXPECT_EQ(traced.depth, plain.depth);
  EXPECT_EQ(traced.verdict, plain.verdict);
  EXPECT_EQ(traced.counterexample, plain.counterexample);
}

// --- campaign progress -----------------------------------------------------

TEST(Progress, HarnessCampaignReportsCompletion) {
  std::vector<int> configs(17);
  std::vector<harness::CampaignProgress> seen;
  harness::ProgressOptions progress;
  progress.interval_ms = 1;
  progress.on_progress = [&](const harness::CampaignProgress& p) {
    seen.push_back(p);
  };
  const std::vector<int> results = harness::run_campaign(
      configs, [](int) { return 1; }, 2, progress);
  EXPECT_EQ(results.size(), 17u);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back().completed, 17u);
  EXPECT_EQ(seen.back().total, 17u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LE(seen[i - 1].completed, seen[i].completed);
  }
}

TEST(Progress, FuzzCampaignCountsIntoTheRegistryAndReports) {
  obs::Registry registry;
  std::vector<std::uint64_t> completions;
  fuzz::CampaignOptions options;
  options.master_seed = 11;
  options.runs = 4;
  options.threads = 2;
  options.shrink = false;
  options.metrics = &registry;
  options.on_progress = [&](std::uint64_t completed, std::uint64_t total,
                            std::uint64_t) {
    EXPECT_EQ(total, 4u);
    completions.push_back(completed);
  };
  const fuzz::CampaignResult result = fuzz::run_fuzz_campaign(options);
  ASSERT_FALSE(completions.empty());
  EXPECT_EQ(completions.back(), result.stats.executed);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fuzz.runs"), result.stats.executed);
  EXPECT_EQ(snap.counter_value("fuzz.failing"), result.stats.failing);
  EXPECT_EQ(snap.counter_value("fuzz.novel"), result.stats.novel);
  EXPECT_EQ(snap.counter_value("fuzz.shrink_runs"), result.stats.shrink_runs);
}

TEST(Progress, HeartbeatLineShape) {
  EXPECT_EQ(obs::heartbeat_line("fuzz", 3, 12, 250),
            "fuzz: 3/12 (25%), 250ms elapsed");
  EXPECT_EQ(obs::heartbeat_line("sweep", 9, 0, 40),
            "sweep: 9, 40ms elapsed");
}

TEST(Progress, JsonObjectBuildsOrderedNdjsonRecords) {
  obs::JsonObject record;
  record.field("type", "progress")
      .field("completed", std::uint64_t{3})
      .field("ratio", 0.5)
      .field("done", false)
      .raw("metrics", "{\"x\":1}");
  const std::string line = record.str();
  util::Json doc;
  std::string error;
  ASSERT_TRUE(util::Json::parse(line, &doc, &error)) << error << ": " << line;
  EXPECT_EQ(doc.find("type")->str, "progress");
  EXPECT_EQ(doc.find("completed")->as_u64(), 3u);
  EXPECT_EQ(doc.find("metrics")->find("x")->as_u64(), 1u);
  EXPECT_EQ(obs::JsonObject{}.str(), "{}");
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

}  // namespace
}  // namespace wfd
