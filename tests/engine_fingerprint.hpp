// Whole-run engine fingerprints shared by the determinism suites
// (test_determinism.cpp, test_soa_engine.cpp): an FNV-1a hash over the
// event stream, a hash of the end-of-run stats, and the ring-gossip
// workload the scheduler sweeps run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"

namespace wfd::sim {

/// FNV-1a over the full event stream; order- and content-sensitive.
struct TraceHasher {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t events = 0;

  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  void on_event(const Event& e) {
    mix(e.time);
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.pid);
    mix(e.a);
    mix(e.b);
    mix(e.c);
    ++events;
  }
};

struct Fingerprint {
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t stats_hash = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

inline std::uint64_t hash_stats(const Engine& engine) {
  TraceHasher h;
  const EngineStats& s = engine.stats();
  h.mix(s.steps);
  h.mix(s.messages_sent);
  h.mix(s.messages_delivered);
  h.mix(s.messages_dropped);
  h.mix(s.crashes);
  h.mix(engine.now());
  return h.hash;
}

/// Gossip workload for scheduler determinism: every step sends to the ring
/// successor, so scheduling choices shape the whole trace.
class RingGossip final : public Process {
 public:
  explicit RingGossip(std::uint32_t n) : n_(n) {}
  void on_step(Context& ctx) override {
    ++ticks_;
    ctx.send((ctx.self() + 1) % n_, 1, Payload{1, ticks_, 0, 0});
  }

 private:
  std::uint32_t n_;
  std::uint64_t ticks_ = 0;
};

/// The gossip sweep's schedulers, by index: round-robin, random, weighted,
/// pausing.
inline constexpr int kGossipSchedulers = 4;

inline std::unique_ptr<Scheduler> gossip_scheduler(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<RoundRobinScheduler>();
    case 1:
      return std::make_unique<RandomScheduler>();
    case 2:
      return std::make_unique<WeightedScheduler>(
          std::vector<std::uint64_t>{1, 3, 1, 7, 2, 5});
    default:
      return std::make_unique<PausingScheduler>(
          std::vector<PausingScheduler::Pause>{{0, 100, 900},
                                               {3, 2000, 2500}});
  }
}

/// 10,000 steps of six-process ring gossip under gossip scheduler
/// `scheduler`, optionally with three crashes (two on the same tick, so pid
/// order must be stable).
inline Fingerprint run_gossip(int scheduler, std::uint64_t seed,
                              bool with_crashes) {
  constexpr std::uint32_t n = 6;
  Engine engine({.seed = seed});
  for (std::uint32_t p = 0; p < n; ++p) {
    engine.add_process(std::make_unique<RingGossip>(n));
  }
  engine.set_scheduler(gossip_scheduler(scheduler));
  if (with_crashes) {
    engine.schedule_crash(1, 500);
    engine.schedule_crash(4, 500);
    engine.schedule_crash(2, 2000);
  }
  TraceHasher hasher;
  engine.trace().subscribe([&hasher](const Event& e) { hasher.on_event(e); });
  engine.init();
  engine.run(10000);
  return {hasher.hash, hasher.events, hash_stats(engine)};
}

}  // namespace wfd::sim
