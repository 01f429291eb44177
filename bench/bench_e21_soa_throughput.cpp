// E21 — million-diner throughput: struct-of-arrays core with sharded
// deterministic execution. Three sections, each run in one process
// invocation:
//
//   transit   the generic sim::Engine, whose one transit store is the
//             shared SoA two-level wheel (sim/soa_transit.hpp), running the
//             e16 gossip workload at n = 1e3 and 1e5.
//
//   dining    the headline pair. Scalar: one heap-allocated Process object
//             per diner on the generic engine, running the hygienic-ring +
//             timeout-suspicion protocol through virtual dispatch, the
//             shared transit store and the global scheduler. Flat: the
//             same protocol over run_flat()'s parallel arrays
//             (flat_dining.hpp) at shards=1. Same hunger/eat/heartbeat
//             parameters, same delay band, both report diner-acts/s and
//             delivered messages/s.
//
//             BENCH_e21.json also keeps `calendar` and `scalar_calendar`
//             rows, measured on a per-destination transit store the
//             engine no longer has; this bench cannot produce them.
//
//   scale     run_flat() alone at n = 1e3 / 1e5 / 1e6 and shard counts
//             {1, 2, 4}, pinning that the run signature is shard-count
//             invariant while it scales to a million diners (the 1e6 row
//             is the "million-diner simulation" budget row).
//
// Usage: bench_e21_soa_throughput [--quick] [--seeds A[:B]] [--json FILE]
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/engine.hpp"
#include "sim/flat_dining.hpp"
#include "sim/sharded.hpp"

namespace {

using namespace wfd;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- transit section --------------------------------------------------------

/// e16's gossip heartbeat: every 2nd scheduled step, message each of up to
/// 8 ring successors. Sustained transit traffic to n distinct destinations.
class GossipProcess final : public sim::Process {
 public:
  GossipProcess(std::uint32_t n, std::uint32_t fanout) : n_(n), fanout_(fanout) {}

  void on_message(sim::Context&, const sim::Message& msg) override {
    received_ += 1 + (msg.payload.a & 0);
  }
  void on_step(sim::Context& ctx) override {
    ++ticks_;
    if (ticks_ % 2 != 0) return;
    for (std::uint32_t k = 1; k <= fanout_; ++k) {
      ctx.send((ctx.self() + k) % n_, 1, sim::Payload{1, ticks_, 0, 0});
    }
  }

 private:
  std::uint32_t n_;
  std::uint32_t fanout_;
  std::uint64_t ticks_ = 0;
  std::uint64_t received_ = 0;
};

struct EngineRun {
  double seconds = 0;
  std::uint64_t steps = 0;
  sim::EngineStats stats;
};

EngineRun run_gossip(std::uint32_t n, std::uint64_t steps,
                     std::uint64_t seed) {
  sim::Engine engine({.seed = seed});
  const std::uint32_t fanout = n - 1 < 8u ? n - 1 : 8u;
  for (std::uint32_t p = 0; p < n; ++p) {
    engine.add_process(std::make_unique<GossipProcess>(n, fanout));
  }
  engine.set_delay_model(std::make_unique<sim::UniformDelay>(1, 8));
  engine.set_scheduler(std::make_unique<sim::RandomScheduler>());
  engine.init();
  engine.run(steps / 10);  // warmup to steady-state queue depth
  EngineRun run;
  const auto start = std::chrono::steady_clock::now();
  run.steps = engine.run(steps);
  run.seconds = seconds_since(start);
  run.stats = engine.stats();
  return run;
}

// --- dining section ---------------------------------------------------------

/// The scalar baseline: the flat engine's hygienic-ring protocol
/// (flat_dining.hpp program order: deliver, heartbeat, act) as one
/// conventional Process object per diner on the generic engine. Same
/// counter-based hunger draws, same parameters — the pair differs only in
/// engine machinery and memory layout.
class OoRingDiner final : public sim::Process {
 public:
  OoRingDiner(const sim::FlatConfig& config, sim::ProcessId self)
      : config_(config), self_(self) {
    const std::uint32_t n = config.n;
    side_[1] = (self != n - 1) ? (sim::kFlatFork | sim::kFlatDirty)
                               : sim::kFlatToken;
    side_[0] = (self == 0) ? (sim::kFlatFork | sim::kFlatDirty)
                           : sim::kFlatToken;
  }

  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    const auto side = static_cast<std::uint8_t>(msg.payload.b & 1);
    last_heard_[side] = ctx.now();
    std::uint8_t& bits = side_[side];
    switch (msg.payload.kind) {
      case sim::kFlatMsgReq:
        bits |= sim::kFlatToken;
        if ((bits & sim::kFlatFork) && (bits & sim::kFlatDirty) &&
            phase_ != sim::FlatPhase::kEating) {
          bits &= static_cast<std::uint8_t>(
              ~(sim::kFlatFork | sim::kFlatDirty));
          send(ctx, side, sim::kFlatMsgFork);
        }
        break;
      case sim::kFlatMsgFork:
        bits |= sim::kFlatFork;
        bits &= static_cast<std::uint8_t>(
            ~(sim::kFlatDirty | sim::kFlatReqSent));
        break;
      default:
        break;
    }
  }

  void on_step(sim::Context& ctx) override {
    // One engine step = one diner acting, so a diner steps every n engine
    // ticks; heartbeat cadence therefore counts own steps (the flat core's
    // per-tick `now % hb_every == pid % hb_every` at the same per-diner
    // rate), and the suspicion window scales by n below.
    ++acts_;
    const sim::Time now = ctx.now();
    if (config_.hb_every > 0 && acts_ % config_.hb_every ==
                                    self_ % config_.hb_every) {
      send(ctx, 0, sim::kFlatMsgHb);
      send(ctx, 1, sim::kFlatMsgHb);
    }
    switch (phase_) {
      case sim::FlatPhase::kThinking:
        if (sim::flat_draw(config_.seed, self_, rng_ctr_++) % 100 <
            config_.hunger_pct) {
          phase_ = sim::FlatPhase::kHungry;
        }
        break;
      case sim::FlatPhase::kHungry: {
        bool ready = true;
        for (std::uint8_t side = 0; side < 2; ++side) {
          std::uint8_t& bits = side_[side];
          if (bits & sim::kFlatFork) continue;
          if (suspects(now, side)) continue;
          ready = false;
          if ((bits & sim::kFlatToken) && !(bits & sim::kFlatReqSent)) {
            bits &= static_cast<std::uint8_t>(~sim::kFlatToken);
            bits |= sim::kFlatReqSent;
            send(ctx, side, sim::kFlatMsgReq);
          }
        }
        if (ready) {
          for (std::uint8_t side = 0; side < 2; ++side) {
            if (side_[side] & sim::kFlatFork) side_[side] |= sim::kFlatDirty;
          }
          eat_left_ = config_.eat_ticks < 1 ? 1 : config_.eat_ticks;
          ++meals_;
          phase_ = sim::FlatPhase::kEating;
        }
        break;
      }
      case sim::FlatPhase::kEating:
        if (--eat_left_ == 0) {
          for (std::uint8_t side = 0; side < 2; ++side) {
            std::uint8_t& bits = side_[side];
            if ((bits & sim::kFlatToken) && (bits & sim::kFlatFork)) {
              bits &= static_cast<std::uint8_t>(
                  ~(sim::kFlatFork | sim::kFlatDirty));
              send(ctx, side, sim::kFlatMsgFork);
            }
          }
          phase_ = sim::FlatPhase::kThinking;
        }
        break;
      case sim::FlatPhase::kCrashed:
        break;
    }
  }

  std::uint64_t acts() const { return acts_; }
  std::uint64_t meals() const { return meals_; }

 private:
  bool suspects(sim::Time now, std::uint8_t side) const {
    return config_.suspect_after > 0 &&
           now - last_heard_[side] >
               config_.suspect_after * static_cast<sim::Time>(config_.n);
  }
  void send(sim::Context& ctx, std::uint8_t side, std::uint32_t kind) {
    const sim::ProcessId dst =
        side == 1 ? (self_ + 1) % config_.n
                  : (self_ + config_.n - 1) % config_.n;
    ctx.send(dst, /*port=*/1,
             sim::Payload{kind, 0, static_cast<std::uint64_t>(side ^ 1), 0});
  }

  const sim::FlatConfig& config_;
  sim::ProcessId self_;
  sim::FlatPhase phase_ = sim::FlatPhase::kThinking;
  std::uint8_t side_[2] = {0, 0};
  sim::Time eat_left_ = 0;
  std::uint64_t meals_ = 0;
  std::uint64_t rng_ctr_ = 0;
  sim::Time last_heard_[2] = {0, 0};
  std::uint64_t acts_ = 0;
};

sim::FlatConfig dining_config(std::uint32_t n, sim::Time ticks,
                              std::uint32_t shards, std::uint64_t seed) {
  sim::FlatConfig config;
  config.seed = seed;
  config.n = n;
  config.steps = ticks;
  config.shards = shards;
  config.delay_min = 1;
  config.delay_max = 4;
  config.hunger_pct = 25;
  config.eat_ticks = 3;
  config.hb_every = 16;
  config.suspect_after = 64;
  return config;
}

struct DiningRun {
  double seconds = 0;
  std::uint64_t acts = 0;       ///< diner steps executed
  std::uint64_t delivered = 0;  ///< messages delivered
  std::uint64_t meals = 0;
  std::uint64_t signature = 0;  ///< flat runs only
};

/// Scalar engine: `ticks` scheduler rounds, one engine step per diner per
/// round (round-robin — the closest analog of the flat engine's lockstep).
DiningRun run_dining_scalar(const sim::FlatConfig& config, sim::Time ticks) {
  sim::Engine engine({.seed = config.seed});
  std::vector<OoRingDiner*> diners;
  for (sim::ProcessId p = 0; p < config.n; ++p) {
    auto diner = std::make_unique<OoRingDiner>(config, p);
    diners.push_back(diner.get());
    engine.add_process(std::move(diner));
  }
  // One flat tick corresponds to n scalar engine ticks (every diner acts
  // once per flat tick), so the 1..4-round delay band scales by n.
  engine.set_delay_model(std::make_unique<sim::UniformDelay>(
      config.delay_min * config.n, config.delay_max * config.n));
  engine.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
  engine.init();
  DiningRun run;
  const auto start = std::chrono::steady_clock::now();
  engine.run(ticks * config.n);
  run.seconds = seconds_since(start);
  run.delivered = engine.stats().messages_delivered;
  for (const OoRingDiner* diner : diners) {
    run.acts += diner->acts();
    run.meals += diner->meals();
  }
  return run;
}

DiningRun run_dining_flat(const sim::FlatConfig& config) {
  DiningRun run;
  const auto start = std::chrono::steady_clock::now();
  const sim::FlatResult result = sim::run_flat(config);
  run.seconds = seconds_since(start);
  run.acts = result.stats.steps;
  run.delivered = result.stats.messages_delivered;
  run.meals = result.stats.meals;
  run.signature = result.signature;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfd::bench;

  bool quick = false;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const CliOptions options =
      parse_cli(static_cast<int>(args.size()), args.data(), "bench_e21");
  const std::uint64_t seed = options.seeds(0x21).front();

  banner("E21 — SoA transit + sharded flat dining throughput",
         "Claim: the generic engine's shared two-level wheel carries gossip\n"
         "to n=1e5, and the flat struct-of-arrays dining core outruns the\n"
         "object-per-diner engine while scaling to a million diners —\n"
         "bit-identically at any shard count.");

  ShapeCheck check;
  JsonRows rows;

  // --- transit: the generic engine's shared SoA wheel -----------------------
  std::printf("%-8s %8s %12s %14s %14s\n", "section", "n", "transit",
              "steps/sec", "msgs/sec");
  const std::vector<std::uint32_t> transit_ns =
      quick ? std::vector<std::uint32_t>{1'000}
            : std::vector<std::uint32_t>{1'000, 100'000};
  for (const std::uint32_t n : transit_ns) {
    const std::uint64_t steps = quick ? 400'000 : 4'000'000;
    const EngineRun run = run_gossip(n, steps, seed);
    const double sps = static_cast<double>(run.steps) / run.seconds;
    const double mps =
        static_cast<double>(run.stats.messages_delivered) / run.seconds;
    std::printf("%-8s %8u %12s %14.0f %14.0f\n", "transit", n, "soa", sps,
                mps);
    check.expect(run.stats.messages_delivered > 0, "gossip delivers");
    rows.begin_row();
    rows.field("bench", "e21_soa_throughput")
        .field("section", "transit")
        .field("engine", "soa")
        .field("n", n)
        .field("seed", seed)
        .field("steps", run.steps)
        .field("steps_per_sec", static_cast<std::uint64_t>(sps))
        .field("messages_per_sec", static_cast<std::uint64_t>(mps));
  }

  // --- dining headline: object-per-diner engine vs flat SoA core ------------
  std::printf("\n%-8s %8s %16s %14s %14s %10s\n", "section", "n", "engine",
              "diners/sec", "msgs/sec", "vs scalar");
  const std::vector<std::uint32_t> dining_ns =
      quick ? std::vector<std::uint32_t>{1'000}
            : std::vector<std::uint32_t>{1'000, 100'000};
  for (const std::uint32_t n : dining_ns) {
    const sim::Time ticks = quick ? 200 : (n >= 100'000 ? 400 : 4'000);
    const sim::FlatConfig config = dining_config(n, ticks, 1, seed);
    const DiningRun scalar = run_dining_scalar(config, ticks);
    const DiningRun flat = run_dining_flat(config);
    check.expect(scalar.meals > 0 && flat.meals > 0,
                 "both dining engines make progress");
    struct Variant {
      const char* name;
      const DiningRun* run;
    };
    const Variant variants[] = {{"scalar_soa", &scalar}, {"flat", &flat}};
    const double base_mps =
        static_cast<double>(scalar.delivered) / scalar.seconds;
    for (const Variant& v : variants) {
      const double aps = static_cast<double>(v.run->acts) / v.run->seconds;
      const double mps =
          static_cast<double>(v.run->delivered) / v.run->seconds;
      std::printf("%-8s %8u %16s %14.0f %14.0f %9.2fx\n", "dining", n,
                  v.name, aps, mps, mps / base_mps);
      rows.begin_row();
      rows.field("bench", "e21_soa_throughput")
          .field("section", "dining")
          .field("engine", v.name)
          .field("n", n)
          .field("seed", seed)
          .field("ticks", ticks)
          .field("diner_acts", v.run->acts)
          .field("meals", v.run->meals)
          .field("diners_per_sec", static_cast<std::uint64_t>(aps))
          .field("messages_per_sec", static_cast<std::uint64_t>(mps));
    }
  }

  // --- scale: the million-diner rows + shard invariance ---------------------
  std::printf("\n%-8s %8s %8s %14s %14s %18s\n", "section", "n", "shards",
              "diners/sec", "msgs/sec", "signature");
  struct ScaleRow {
    std::uint32_t n;
    sim::Time ticks;
    std::uint32_t shards;
  };
  const std::vector<ScaleRow> scale =
      quick ? std::vector<ScaleRow>{{1'000, 400, 1},
                                    {1'000, 400, 4},
                                    {100'000, 40, 1}}
            : std::vector<ScaleRow>{{1'000, 4'000, 1},
                                    {100'000, 400, 1},
                                    {100'000, 400, 2},
                                    {100'000, 400, 4},
                                    {1'000'000, 100, 1},
                                    {1'000'000, 100, 4}};
  std::uint64_t shard_sig = 0;  // n=1e5 (full) / 1e3 (quick) invariance pin
  for (const ScaleRow& row : scale) {
    const sim::FlatConfig config =
        dining_config(row.n, row.ticks, row.shards, seed);
    const DiningRun run = run_dining_flat(config);
    const double aps = static_cast<double>(run.acts) / run.seconds;
    const double mps = static_cast<double>(run.delivered) / run.seconds;
    std::printf("%-8s %8u %8u %14.0f %14.0f %18llx\n", "scale", row.n,
                row.shards, aps, mps,
                static_cast<unsigned long long>(run.signature));
    check.expect(run.meals > 0, "scale row makes progress");
    if (row.n == (quick ? 1'000u : 100'000u)) {
      if (shard_sig == 0) {
        shard_sig = run.signature;
      } else {
        check.expect(run.signature == shard_sig,
                     "signature is shard-count invariant");
      }
    }
    rows.begin_row();
    rows.field("bench", "e21_soa_throughput")
        .field("section", "scale")
        .field("engine", "flat")
        .field("n", row.n)
        .field("shards", row.shards)
        .field("seed", seed)
        .field("ticks", row.ticks)
        .field("diner_acts", run.acts)
        .field("meals", run.meals)
        .field("diners_per_sec", static_cast<std::uint64_t>(aps))
        .field("messages_per_sec", static_cast<std::uint64_t>(mps));
  }

  if (!options.json_path.empty()) {
    if (rows.write_file(options.json_path)) {
      std::printf("\nwrote %s\n", options.json_path.c_str());
    } else {
      check.expect(false, "JSON output written");
    }
  }
  return check.finish("E21");
}
