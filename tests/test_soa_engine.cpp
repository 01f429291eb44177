// The engine's transit store and the sharded flat engine carry a single
// contract: STORAGE AND PARTITIONING ARE NEVER OBSERVABLE.
//
//   * SoaTransit delivers each destination's messages in exact
//     (deliver_at, seq) order with in-place deferral, checked against a
//     naive std::priority_queue + deferred-FIFO reference model over long
//     random schedules that reach every band: near wheel, far wheel, outer
//     band, pushes from inside a drain, and destinations cleared mid-run.
//   * Whole engine runs reproduce recorded fingerprints — the captured
//     event stream, end time, signature and run counters — for every
//     conformance vector, two adversary+retransmit regimes and a gossip
//     sweep over every scheduler with and without crashes. The pins were
//     recorded while a second, independent store (per-destination calendar
//     queues) still ran beside this one and agreed with it on every case.
//   * run_flat() is bit-identical at any shard count — 1, 2, 8, and
//     oversubscribed past the core count — same stats, same signature,
//     same merged (tick, pid) event stream.
//   * The obs registry mirror agrees exactly with the run: flat.* counters
//     equal FlatStats, and a Perfetto export of the merged events validates
//     against the registry's sim.events.* counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iterator>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine_fingerprint.hpp"
#include "fuzz/config.hpp"
#include "fuzz/oracles.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "scenario/scenario.hpp"
#include "sim/flat_dining.hpp"
#include "sim/rng.hpp"
#include "sim/sharded.hpp"
#include "sim/soa_transit.hpp"

namespace wfd::sim {
namespace {

bool same_event(const Event& a, const Event& b) {
  return a.time == b.time && a.kind == b.kind && a.pid == b.pid &&
         a.a == b.a && a.b == b.b && a.c == b.c;
}

// --- SoaTransit in isolation ------------------------------------------------

/// Fill a message slot with an identifiable body.
void stamp(Message& slot, ProcessId dst, std::uint64_t seq) {
  slot.src = 0;
  slot.dst = dst;
  slot.port = 7;
  slot.seq = seq;
  slot.payload = Payload{1, seq, 0, 0};
}

TEST(SoaTransit, DrainsInDeliverAtThenSeqOrderAcrossAllBands) {
  SoaTransit transit(2);
  std::uint64_t seq = 0;
  // Interleave pushes landing in the near wheel, the far wheel, and the
  // outer band (past ~1M ticks), all for destination 0, plus noise for 1.
  const Time far_start = 2 * SoaTransit::kFarWidth;  // initial horizon
  const Time outer_start =
      far_start + SoaTransit::kFarWidth * SoaTransit::kFarCount;
  const std::vector<Time> dues = {
      5,      outer_start + 9000, 700,  outer_start + 17,
      40000,  outer_start + 17,   5,    far_start + 12345,
      260000, 3,                  5000, outer_start + 9000,
  };
  for (const Time due : dues) {
    stamp(transit.push(due, 0), 0, seq++);
    stamp(transit.push(due + 1, 1), 1, seq++);
  }
  EXPECT_EQ(transit.size(), 2 * dues.size());

  // Expected order for dst 0: sort the pushes by (due, push index).
  std::vector<std::pair<Time, std::uint64_t>> expected;
  for (std::size_t i = 0; i < dues.size(); ++i) {
    expected.push_back({dues[i], 2 * i});  // seq of the dst-0 push
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::pair<Time, std::uint64_t>> got;
  const Time last = outer_start + 9001;
  for (Time now = 1; now <= last; ++now) {
    transit.advance(now);
    transit.drain_ready(0, [&](const InTransit& item) {
      got.push_back({item.deliver_at, item.msg.seq});
      EXPECT_EQ(item.deliver_at, now);
      return true;
    });
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "position " << i;
  }
  EXPECT_EQ(transit.pending(0), 0u);
  EXPECT_EQ(transit.size(), dues.size());  // dst 1 still queued
}

TEST(SoaTransit, DeferredItemsStayInOrderAndClearSettlesCounts) {
  SoaTransit transit(3);
  for (std::uint64_t i = 0; i < 6; ++i) stamp(transit.push(4, 2), 2, i);
  stamp(transit.push(9000, 2), 2, 6);
  for (Time now = 1; now <= 4; ++now) transit.advance(now);

  // Defer everything once (one-per-sender step semantics does this), then
  // drain: order must be unchanged.
  transit.drain_ready(2, [](const InTransit&) { return false; });
  std::uint64_t want = 0;
  transit.drain_ready(2, [&](const InTransit& item) {
    EXPECT_EQ(item.msg.seq, want++);
    return want <= 3;  // consume 3, defer the rest again
  });
  EXPECT_EQ(transit.pending(2), 4u);  // 3 deferred + 1 in the far wheel

  // Crash the destination: counters settle instantly, wheel slots lazily.
  EXPECT_EQ(transit.clear_dst(2), 4u);
  EXPECT_EQ(transit.pending(2), 0u);
  EXPECT_EQ(transit.size(), 0u);
  for (Time now = 5; now <= 9000; ++now) transit.advance(now);  // no crash
  EXPECT_FALSE(transit.has_ready(2));
}

// --- SoaTransit vs a reference model ---------------------------------------

struct RefItem {
  Time deliver_at = 0;
  std::uint64_t seq = 0;
  bool operator>(const RefItem& other) const {
    if (deliver_at != other.deliver_at) return deliver_at > other.deliver_at;
    return seq > other.seq;
  }
};

/// The naive model of one destination: a min-heap by (deliver_at, seq) for
/// pending items and a FIFO for due items the consumer deferred, retried
/// ahead of the heap on the next drain.
struct ReferenceQueue {
  std::priority_queue<RefItem, std::vector<RefItem>, std::greater<>> heap;
  std::deque<RefItem> deferred;

  std::size_t size() const { return heap.size() + deferred.size(); }
  bool has_due(Time now) const {
    return !deferred.empty() || (!heap.empty() && heap.top().deliver_at <= now);
  }
  /// Same contract as SoaTransit::drain_ready: `consume` returns false to
  /// defer, and may push (strictly past `now`) into any queue.
  template <class Consume>
  void drain(Time now, Consume&& consume) {
    for (std::size_t left = deferred.size(); left > 0; --left) {
      const RefItem item = deferred.front();
      deferred.pop_front();
      if (!consume(item)) deferred.push_back(item);
    }
    while (!heap.empty() && heap.top().deliver_at <= now) {
      const RefItem item = heap.top();
      heap.pop();
      if (!consume(item)) deferred.push_back(item);
    }
  }
};

constexpr ProcessId kPropDsts = 5;
constexpr Time kOuterDelay = 1'050'000;  // past far coverage from any tick

/// Shared deterministic policies, keyed only on values both models see, so
/// the two executions make identical choices independent of representation.
bool should_defer(std::uint64_t seq, std::uint64_t round) {
  return (seq + round) % 3 == 0;  // retried items pass on a later round
}
bool spawns_on_consume(std::uint64_t seq) { return seq % 5 == 2; }
ProcessId spawn_dst(std::uint64_t seq) {
  return static_cast<ProcessId>(seq % kPropDsts);
}
Time spawn_delay(std::uint64_t seq) {
  // Mostly near wheel; every 4th spawn into the far wheel and every 16th
  // past it into the outer band, even mid-drain.
  if (seq % 4 == 3) return 2048 + seq % 3000;
  if (seq % 16 == 1) return kOuterDelay + seq % 977;
  return 1 + seq % 37;
}

TEST(SoaTransit, MatchesReferenceModelUnderRandomInterleavings) {
  for (const std::uint64_t master_seed : {11ull, 12ull, 13ull}) {
    Rng rng(master_seed);
    SoaTransit transit(kPropDsts);
    std::vector<ReferenceQueue> model(kPropDsts);
    std::vector<bool> dead(kPropDsts, false);
    std::uint64_t transit_seq = 0;  // each execution assigns its own seqs
    std::uint64_t model_seq = 0;
    std::uint64_t round = 0;
    Time now = 0;
    Time last_due = 0;
    std::size_t delivered = 0, spawned = 0, far = 0, outer = 0, cleared = 0;

    const auto push_transit = [&](ProcessId dst, Time at) {
      Message& slot = transit.push(at, dst);
      slot = Message{};
      slot.src = static_cast<ProcessId>(transit_seq % 7);
      slot.dst = dst;
      slot.seq = transit_seq++;
    };
    const auto push_model = [&](ProcessId dst, Time at) {
      model[dst].heap.push({at, model_seq++});
      last_due = std::max(last_due, at);
      far += at - now >= 2048 ? 1 : 0;
      outer += at - now >= kOuterDelay ? 1 : 0;
    };
    const auto model_size = [&] {
      std::size_t total = 0;
      for (const ReferenceQueue& queue : model) total += queue.size();
      return total;
    };
    const auto live_dst = [&] {
      for (;;) {
        const auto dst = static_cast<ProcessId>(rng.below(kPropDsts));
        if (!dead[dst]) return dst;
      }
    };

    for (int step = 0; step < 3000; ++step) {
      // advance() every tick; the occasional long gap carries the clock
      // across far-block cascades and outer-band sweeps.
      const std::uint64_t jump = rng.below(100);
      const Time gap = jump < 75   ? 1
                       : jump < 95 ? rng.range(2, 50)
                       : jump < 99 ? rng.range(300, 3000)
                                   : rng.range(20'000, 80'000);
      for (const Time stop = now + gap; now < stop;) transit.advance(++now);
      for (ProcessId dst = 0; dst < kPropDsts; ++dst) {
        if (dead[dst]) continue;
        ASSERT_EQ(transit.has_ready(dst), model[dst].has_due(now))
            << "dst " << dst << " at tick " << now;
      }

      for (std::uint64_t s = rng.below(5); s > 0; --s) {
        const ProcessId dst = live_dst();
        const std::uint64_t band = rng.below(100);
        // Outer-band dues snap to a coarse grid, so items pushed far apart
        // share a tick and must keep seq order through the sorted band.
        const Time due =
            band < 80   ? now + rng.range(1, 2047)
            : band < 97 ? now + rng.range(2048, 200'000)
                        : (now + kOuterDelay + rng.below(50'000)) | 0x3fff;
        push_transit(dst, due);
        push_model(dst, due);
      }

      if (step == 1000 || step == 2000) {
        // A destination crashes: the return value is everything it still
        // had queued (ready or in any band); its wheel slots free lazily.
        const ProcessId dst = live_dst();
        ASSERT_EQ(transit.clear_dst(dst), model[dst].size())
            << "dst " << dst << " at tick " << now;
        model[dst] = ReferenceQueue{};
        dead[dst] = true;
        ++cleared;
      }

      for (ProcessId dst = 0; dst < kPropDsts; ++dst) {
        if (dead[dst] || !rng.chance(0.6)) continue;
        ++round;
        // Consumes may spawn pushes to live destinations, this one
        // included, in the same order under both executions.
        std::vector<std::uint64_t> got;
        transit.drain_ready(dst, [&](const InTransit& item) {
          EXPECT_LE(item.deliver_at, now);
          if (should_defer(item.msg.seq, round)) return false;
          got.push_back(item.msg.seq);
          const ProcessId to = spawn_dst(item.msg.seq);
          if (spawns_on_consume(item.msg.seq) && !dead[to]) {
            push_transit(to, now + spawn_delay(item.msg.seq));
          }
          return true;
        });
        std::vector<std::uint64_t> expected;
        model[dst].drain(now, [&](const RefItem& item) {
          if (should_defer(item.seq, round)) return false;
          expected.push_back(item.seq);
          const ProcessId to = spawn_dst(item.seq);
          if (spawns_on_consume(item.seq) && !dead[to]) {
            push_model(to, now + spawn_delay(item.seq));
            ++spawned;
          }
          return true;
        });
        ASSERT_EQ(got, expected) << "dst " << dst << " diverged at tick "
                                 << now << " (seed " << master_seed
                                 << ", round " << round << ")";
        ASSERT_EQ(transit.pending(dst), model[dst].size());
        ASSERT_EQ(transit.size(), model_size());
        delivered += got.size();
      }
    }

    // Run the clock past the last due tick, then drain every live
    // destination with deferral off: both models must empty completely.
    while (now < last_due) transit.advance(++now);
    for (ProcessId dst = 0; dst < kPropDsts; ++dst) {
      if (dead[dst]) continue;
      std::vector<std::uint64_t> got;
      transit.drain_ready(dst, [&](const InTransit& item) {
        got.push_back(item.msg.seq);
        return true;
      });
      std::vector<std::uint64_t> expected;
      model[dst].drain(now, [&](const RefItem& item) {
        expected.push_back(item.seq);
        return true;
      });
      ASSERT_EQ(got, expected) << "final drain of dst " << dst << " (seed "
                               << master_seed << ")";
      delivered += got.size();
      EXPECT_FALSE(transit.has_ready(dst));
    }
    EXPECT_EQ(transit.size(), 0u);
    EXPECT_EQ(model_size(), 0u);

    // The schedule actually exercised every path worth having: volume,
    // re-entrant spawns, both far bands, and mid-run crashes.
    EXPECT_GT(delivered, 5000u);
    EXPECT_GT(spawned, 100u);
    EXPECT_GT(far, 500u);
    EXPECT_GT(outer, 50u);
    EXPECT_EQ(cleared, 2u);
    EXPECT_EQ(transit_seq, model_seq);
  }
}

// --- whole-engine fingerprints ----------------------------------------------

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

/// A graded fuzz run as a Fingerprint: the captured event stream (FNV-1a
/// and count), plus one hash over the capture's truncation count and end
/// time, the run signature, the run counters and the failures.
Fingerprint fingerprint_run(const fuzz::FuzzConfig& config) {
  fuzz::RunCapture capture;
  const fuzz::RunResult result = fuzz::run_config(config, capture);
  TraceHasher trace;
  for (const Event& event : capture.events) trace.on_event(event);
  TraceHasher outcome;
  const fuzz::RunStats& s = result.stats;
  for (const std::uint64_t word :
       {capture.truncated, capture.end_time, result.signature, s.steps,
        s.messages_sent, s.messages_delivered, s.messages_dropped,
        s.messages_lost, s.messages_duplicated, s.messages_retransmitted,
        s.in_transit, s.total_meals}) {
    outcome.mix(word);
  }
  outcome.mix(result.failures.size());
  for (const fuzz::OracleFailure& failure : result.failures) {
    for (const char c : failure.oracle) {
      outcome.mix(static_cast<unsigned char>(c));
    }
    outcome.mix(failure.at);
  }
  return {trace.hash, trace.events, outcome.hash};
}

/// A fingerprint as a pin-table initializer, so a missing or moved pin
/// prints the line to paste.
std::string pin_text(const Fingerprint& f) {
  char text[96];
  std::snprintf(text, sizeof text, "{0x%016llxull, %llu, 0x%016llxull}",
                static_cast<unsigned long long>(f.trace_hash),
                static_cast<unsigned long long>(f.events),
                static_cast<unsigned long long>(f.stats_hash));
  return text;
}

struct VectorPin {
  const char* file;
  Fingerprint fingerprint;
};

constexpr VectorPin kVectorPins[] = {
    {"v01_exclusive_clean.scenario.json", {0x3f31691f49b97c81ull, 89252, 0xbb5392116e248828ull}},
    {"v02_mistake_prefix.scenario.json", {0x92b974a97754d0f9ull, 90071, 0xc76a593034ff1d76ull}},
    {"v03_crash_regime.scenario.json", {0x185c5bf2442b24f0ull, 90453, 0xbe93ee6ab4ee5031ull}},
    {"v04_broken_single_instance.scenario.json", {0x6998026e22155fd6ull, 73351, 0xfc48552643632142ull}},
    {"v05_broken_fork_based.scenario.json", {0x784773e3db72ee0full, 56566, 0xa9f31d83f425a482ull}},
    {"v06_composed_pairs.scenario.json", {0x36a56f37fb817448ull, 93714, 0xae09beee6b3fe020ull}},
    {"v07_dining_ring.scenario.json", {0x4e3bc7d07611fca1ull, 77058, 0x917fc742e138dd68ull}},
    {"v08_dining_partial_synchrony.scenario.json", {0xb94bc7be9d0e0ad5ull, 88830, 0x501c372e035a7ba0ull}},
    {"v09_pausing_mistakes.scenario.json", {0x32b2e684375f829aull, 87402, 0x71b3a4e7989f10aeull}},
    {"v10_duplication_benign.scenario.json", {0xd5d06bade7a06f65ull, 89561, 0xb0e407b8c7213ca6ull}},
    {"v11_permanent_partition.scenario.json", {0x89dbd69d58e7971cull, 60616, 0xff28556d3e820c2bull}},
    {"v12_heavy_loss_extraction.scenario.json", {0x684eb4eb0502c783ull, 60030, 0xc14fe6b6abf4fcadull}},
    {"v13_transient_partition_still_fatal.scenario.json", {0x29dd370783ef8b59ull, 60220, 0x4b36e158e14b742eull}},
    {"v14_transient_partition_healed.scenario.json", {0xbf687a9a11efd136ull, 81229, 0x3721bdd32f2b26fcull}},
};

TEST(EngineFingerprint, EveryConformanceVectorMatchesItsPin) {
  const std::vector<std::string> files = vector_files();
  ASSERT_GE(files.size(), 14u);
  EXPECT_EQ(files.size(), std::size(kVectorPins)) << "stale or missing pins";
  for (const std::string& path : files) {
    const std::string file = std::filesystem::path(path).filename().string();
    scenario::Scenario scenario;
    std::string error;
    ASSERT_TRUE(scenario::load_scenario_file(path, &scenario, &error))
        << file << ": " << error;
    const Fingerprint got = fingerprint_run(scenario.config);
    const auto pin = std::find_if(
        std::begin(kVectorPins), std::end(kVectorPins),
        [&file](const VectorPin& p) { return file == p.file; });
    if (pin == std::end(kVectorPins)) {
      ADD_FAILURE() << "no pinned fingerprint for " << file << ":\n    {\""
                    << file << "\", " << pin_text(got) << "},";
      continue;
    }
    EXPECT_EQ(got, pin->fingerprint)
        << file << " now runs as " << pin_text(got);
  }
}

/// Regimes past the corpus: loss + duplication + partitions + retransmit
/// all at once, over the dining and the extraction targets.
fuzz::FuzzConfig adversary_regime(bool extraction) {
  fuzz::FuzzConfig config;
  config.seed = 99;
  config.n = 5;
  config.steps = 30000;
  config.target =
      extraction ? fuzz::TargetKind::kExtraction : fuzz::TargetKind::kDining;
  config.scheduler = fuzz::SchedulerKind::kRandom;
  config.loss_rate = 0.08;
  config.dup_rate = 0.05;
  config.dup_spread = 16;
  config.partitions.push_back({300, 900, {0, 1}});
  config.retransmit_every = 32;
  config.retransmit_max = 8;
  config.crashes.push_back({4, 4000});
  return fuzz::normalize(config);
}

TEST(EngineFingerprint, AdversaryRetransmitRegimesMatchTheirPins) {
  constexpr Fingerprint kDining{0x68b08cdb06ecaf18ull, 31965,
                                0x16e140db1ae392faull};
  constexpr Fingerprint kExtraction{0xbbcecf769af7c8faull, 37825,
                                    0x0485e9d767823dadull};
  const Fingerprint dining = fingerprint_run(adversary_regime(false));
  const Fingerprint extraction = fingerprint_run(adversary_regime(true));
  EXPECT_EQ(dining, kDining) << "dining+adversary now runs as "
                             << pin_text(dining);
  EXPECT_EQ(extraction, kExtraction) << "extraction+adversary now runs as "
                                     << pin_text(extraction);
}

TEST(EngineFingerprint, GossipUnderEverySchedulerMatchesItsPins) {
  // [gossip_scheduler index][crashes]
  constexpr Fingerprint kPins[kGossipSchedulers][2] = {
      {{0x5be8a16b9419efb6ull, 29987, 0x1a2fa97ce49f7d30ull},
       {0x382b3f2e0a1ca9e4ull, 29995, 0x0581de8b7ca760f8ull}},
      {{0x36d6dc025b4e49dbull, 29718, 0x040f88552b11b54full},
       {0xf1963ea0b097c967ull, 29955, 0xcc458626908a139eull}},
      {{0x362121ec0b22dce9ull, 24237, 0xf77460d16c17423full},
       {0xc055ac4e37e97247ull, 26914, 0xa5242cc6ae08fefbull}},
      {{0x1401a2175179a03cull, 29638, 0x78febf20e03448dfull},
       {0xb341b3c651a5c306ull, 29824, 0x556c2cfce5272a60ull}},
  };
  for (int scheduler = 0; scheduler < kGossipSchedulers; ++scheduler) {
    for (const bool crashes : {false, true}) {
      const Fingerprint got = run_gossip(scheduler, 11, crashes);
      EXPECT_EQ(got, kPins[scheduler][crashes])
          << "scheduler " << scheduler << " crashes " << crashes
          << " now runs as " << pin_text(got);
    }
  }
}

// --- sharded flat engine ----------------------------------------------------

FlatConfig shard_config(std::uint32_t shards) {
  FlatConfig config;
  config.seed = 77;
  config.n = 96;
  config.steps = 4000;
  config.shards = shards;
  config.delay_min = 1;
  config.delay_max = 4;
  config.hunger_pct = 30;
  config.eat_ticks = 3;
  config.hb_every = 16;
  config.suspect_after = 64;  // > hb_every + delay_max: no false suspicion
  config.crashes = {{5, 100}, {17, 700}};
  config.record_events = true;
  return config;
}

TEST(ShardedFlat, BitIdenticalAtEveryShardCountIncludingOversubscribed) {
  const FlatResult base = run_flat(shard_config(1));
  EXPECT_GT(base.stats.meals, 0u);
  EXPECT_EQ(base.stats.crashes, 2u);
  EXPECT_EQ(base.stats.messages_sent,
            base.stats.messages_delivered + base.stats.messages_dropped +
                base.in_flight);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::uint32_t shards :
       {2u, 8u, 2 * hw}) {  // oversubscribed: 2x the machine's cores
    const FlatResult got = run_flat(shard_config(shards));
    EXPECT_EQ(got.signature, base.signature) << shards << " shards";
    EXPECT_EQ(got.stats, base.stats) << shards << " shards";
    EXPECT_EQ(got.in_flight, base.in_flight) << shards << " shards";
    ASSERT_EQ(got.events.size(), base.events.size()) << shards << " shards";
    for (std::size_t i = 0; i < got.events.size(); ++i) {
      ASSERT_TRUE(same_event(got.events[i], base.events[i]))
          << shards << " shards: first divergence at event " << i;
    }
  }
}

TEST(ShardedFlat, RunsArePureFunctionsOfSeed) {
  FlatConfig config = shard_config(2);
  const FlatResult a = run_flat(config);
  const FlatResult b = run_flat(config);
  EXPECT_EQ(a.signature, b.signature);
  config.seed = 78;
  EXPECT_NE(run_flat(config).signature, a.signature);
}

/// Did `pid` ever start eating in `result`?
bool ever_ate(const FlatResult& result, ProcessId pid) {
  for (const Event& event : result.events) {
    if (event.kind == EventKind::kDinerTransition && event.pid == pid &&
        event.c == static_cast<std::uint64_t>(FlatPhase::kEating)) {
      return true;
    }
  }
  return false;
}

TEST(ShardedFlat, SuspicionOverrideKeepsTheCrashedForkHoldersNeighborEating) {
  // Diner 5 dies at tick 0 holding the edge-5 fork (the initial dirty-fork
  // orientation puts edge e's fork at its lower endpoint). Diner 6's left
  // fork is gone forever: only the timeout override can let 6 eat.
  FlatConfig config = shard_config(4);
  config.crashes = {{5, 0}};
  const FlatResult with_detector = run_flat(config);
  EXPECT_TRUE(ever_ate(with_detector, 6))
      << "suspicion override never fired for the dead fork holder";

  // The control: detector off, same crash — diner 6 blocks forever on the
  // lost fork (the flat-engine reproduction of the v13 starvation finding,
  // and of why the wait-free transformation needs the detector at all).
  config.suspect_after = 0;
  const FlatResult without_detector = run_flat(config);
  EXPECT_FALSE(ever_ate(without_detector, 6))
      << "diner ate using a fork its dead neighbor took to the grave";
  EXPECT_TRUE(ever_ate(without_detector, 2))
      << "a diner with two live neighbors must keep eating either way";
}

// --- observability parity ---------------------------------------------------

TEST(ShardedFlat, RegistryMirrorsStatsAndPerfettoExportMatchesCounters) {
  obs::Registry registry;
  FlatConfig config = shard_config(3);
  config.n = 24;
  config.steps = 1500;
  config.crashes = {{5, 100}};
  config.metrics = &registry;
  const FlatResult result = run_flat(config);

  const obs::Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("flat.steps"), result.stats.steps);
  EXPECT_EQ(snapshot.counter_value("flat.sent"), result.stats.messages_sent);
  EXPECT_EQ(snapshot.counter_value("flat.delivered"),
            result.stats.messages_delivered);
  EXPECT_EQ(snapshot.counter_value("flat.dropped"),
            result.stats.messages_dropped);
  EXPECT_EQ(snapshot.counter_value("flat.meals"), result.stats.meals);
  EXPECT_EQ(snapshot.counter_value("flat.crashes"), result.stats.crashes);
  ASSERT_NE(snapshot.find_gauge("flat.shards"), nullptr);
  EXPECT_EQ(snapshot.find_gauge("flat.shards")->value, 3.0);

  // The merged event stream was replayed through a registry-bound Trace;
  // a Perfetto export of the same stream must agree with those counters
  // exactly, kind by kind.
  std::ostringstream out;
  obs::write_perfetto(result.events, out);
  const std::map<std::string, std::uint64_t> expected =
      obs::expected_counts_from(snapshot);
  ASSERT_FALSE(expected.empty());
  std::string why;
  EXPECT_TRUE(obs::validate_trace_json(out.str(), &expected, &why)) << why;
}

}  // namespace
}  // namespace wfd::sim
