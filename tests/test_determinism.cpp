// Whole-run determinism and golden-trace pinning. Every run is a pure
// function of (configuration, seed): same seed ⇒ byte-identical event trace
// and EngineStats, across all schedulers, before and after crashes. The
// golden constants below were captured from the pre-overhaul engine (the
// per-destination std::priority_queue<InTransit> heap); the transit store
// and the masked trace fast path must reproduce them exactly — they change
// the data structure, never the (deliver_at, seq) delivery order or the RNG
// draw sequence.
#include <gtest/gtest.h>

#include "dining/client.hpp"
#include "engine_fingerprint.hpp"
#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "reduce/extraction.hpp"

namespace wfd::sim {
namespace {

/// Alg. 1/2 extraction over the real wait-free dining box, one crash —
/// the reduction workload of the paper, message- and crash-heavy.
Fingerprint run_reduction_config(std::uint64_t seed) {
  harness::Rig rig(
      harness::RigOptions{.seed = seed, .n = 3, .detector_lag = 25});
  reduce::WaitFreeBoxFactory factory(
      [&rig](ProcessId p) { return rig.detectors[p].get(); });
  auto extraction = reduce::build_full_extraction(rig.hosts, factory,
                                                  reduce::ExtractionOptions{});
  TraceHasher hasher;
  rig.engine.trace().subscribe(
      [&hasher](const Event& e) { hasher.on_event(e); });
  rig.engine.schedule_crash(2, 5000);
  rig.engine.init();
  rig.engine.run(20000);
  return {hasher.hash, hasher.events, hash_stats(rig.engine)};
}

/// Hygienic dining on a ring with standard clients — fork/token traffic
/// through the default uniform-delay channel.
Fingerprint run_hygienic_config(std::uint64_t seed) {
  harness::Rig rig(harness::RigOptions{.seed = seed, .n = 5});
  auto instance = rig.add_hygienic_dining(10, 1, graph::make_ring(5));
  auto clients = rig.add_clients(instance, dining::ClientConfig{});
  TraceHasher hasher;
  rig.engine.trace().subscribe(
      [&hasher](const Event& e) { hasher.on_event(e); });
  rig.engine.init();
  rig.engine.run(20000);
  return {hasher.hash, hasher.events, hash_stats(rig.engine)};
}

// Captured from the pre-overhaul engine (heap-based transit queues) at the
// commit introducing this test; see PR "simulation-core hot-path overhaul".
constexpr Fingerprint kGoldenReduction{3659772812120896702ull, 28985,
                                       13410170420198056445ull};
constexpr Fingerprint kGoldenHygienic{2405967122402567080ull, 25494,
                                      6419710400179810867ull};

TEST(GoldenTrace, ReductionConfigMatchesPreOverhaulEngine) {
  const Fingerprint got = run_reduction_config(22);
  EXPECT_EQ(got.trace_hash, kGoldenReduction.trace_hash);
  EXPECT_EQ(got.events, kGoldenReduction.events);
  EXPECT_EQ(got.stats_hash, kGoldenReduction.stats_hash);
}

TEST(GoldenTrace, HygienicConfigMatchesPreOverhaulEngine) {
  const Fingerprint got = run_hygienic_config(3);
  EXPECT_EQ(got.trace_hash, kGoldenHygienic.trace_hash);
  EXPECT_EQ(got.events, kGoldenHygienic.events);
  EXPECT_EQ(got.stats_hash, kGoldenHygienic.stats_hash);
}

TEST(GoldenTrace, RunsArePureFunctionsOfSeed) {
  EXPECT_EQ(run_reduction_config(22), run_reduction_config(22));
  EXPECT_EQ(run_hygienic_config(3), run_hygienic_config(3));
  EXPECT_NE(run_reduction_config(22), run_reduction_config(23));
}

TEST(SchedulerDeterminism, SameSeedSameTraceAcrossAllSchedulers) {
  for (int scheduler = 0; scheduler < kGossipSchedulers; ++scheduler) {
    for (const bool crashes : {false, true}) {
      EXPECT_EQ(run_gossip(scheduler, 11, crashes),
                run_gossip(scheduler, 11, crashes))
          << "scheduler " << scheduler << " crashes " << crashes;
    }
  }
}

}  // namespace
}  // namespace wfd::sim
