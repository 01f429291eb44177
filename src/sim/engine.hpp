// The simulation engine: owns processes, channels, clock, scheduler, fault
// plan and trace, and advances the run one atomic step at a time. Every run
// is a pure function of (configuration, seed).
//
// Hot-path layout (one step = one scheduled process):
//   * one shared transit store for every destination (sim/soa_transit.hpp):
//     O(1) push into a two-level timing wheel, one advance() per tick that
//     scatters everything due onto per-destination ready lists, so the
//     receive phase is a list drain with in-place deferral;
//   * pending crashes kept as a time-sorted band, so the no-crash-due common
//     case is a single comparison instead of an all-process scan;
//   * the receive phase stamps senders with a step epoch instead of
//     refilling a seen-bitmap, and leaves duplicates in place on the ready
//     list instead of popping into a side buffer and re-pushing;
//   * trace emission is a branch-and-return unless the event kind is
//     enabled (sim/trace.hpp).
// None of this may change observable behavior: delivery follows exact
// (deliver_at, seq) order and the RNG draw sequence is untouched, so traces
// stay byte-identical to the pre-overhaul heap engine (pinned by
// tests/test_determinism.cpp and by the per-vector fingerprints in
// tests/test_soa_engine.cpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/delay.hpp"
#include "sim/net.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/soa_transit.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace wfd::sim {

/// Aggregate run statistics (ground truth; monitors may read, processes may
/// not).
struct EngineStats {
  std::uint64_t steps = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;     ///< dst crashed, adversary loss/cut
  std::uint64_t crashes = 0;
  /// Network-adversary subsets of the totals above (sim/net.hpp). Losses
  /// (random or partition) count in BOTH messages_lost and messages_dropped,
  /// so `sent == delivered + dropped + in_transit` stays the conservation
  /// law; duplicates add `messages_duplicated` extra in-flight copies, so
  /// with the adversary on it reads
  /// `sent + duplicated == delivered + dropped + in_transit`.
  std::uint64_t messages_lost = 0;
  std::uint64_t messages_duplicated = 0;
  /// Channel retransmission attempts (sim/net.hpp retransmit_every). Purely
  /// informational: a message recovered by a retransmit counts once in
  /// `messages_sent` and once in `messages_delivered`, so the conservation
  /// law above is untouched.
  std::uint64_t messages_retransmitted = 0;
};

struct EngineConfig {
  std::uint64_t seed = 0x5eed;
  /// Events retained in memory for offline inspection (observers always run).
  std::size_t trace_capacity = 0;
  /// Kind mask for retention (kind_mask(...) bits; default everything).
  /// Only meaningful with trace_capacity > 0.
  std::uint64_t trace_retain_kinds = kAllEventKinds;
  /// Optional metrics registry: the engine registers sim.steps / sim.sent /
  /// sim.delivered / sim.dropped / sim.crashes counters (mirrored from the
  /// engine stats at run()/run_until()/destructor boundaries), and the trace
  /// counts dispatched events per kind (sim.events.*; complete whenever
  /// retention covers every kind, as in capture/export runs). Never perturbs
  /// the run itself (no RNG draws, no event changes) and never slows the
  /// per-step hot path.
  obs::Registry* metrics = nullptr;
  /// Messages a process may send inside one atomic step (paper: at most one
  /// per destination; layered protocols at one process may multiplex several
  /// logical threads into one physical step, so the bound is per
  /// (destination, step) times the number of registered layers — checked
  /// loosely via this knob; 0 disables the check).
  std::uint32_t max_sends_per_step = 0;
};

/// Discrete-event engine for the paper's asynchronous model.
class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();  ///< flushes any un-mirrored stats into the metrics registry

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// --- configuration (before init()) -------------------------------------
  ProcessId add_process(std::unique_ptr<Process> process);
  void set_delay_model(std::unique_ptr<DelayModel> model);
  void set_scheduler(std::unique_ptr<Scheduler> scheduler);
  /// Schedule a crash: `pid` ceases execution at tick `at` (never recovers).
  /// May also be called mid-run for a future tick (or `at` = now, taking
  /// effect on the next step); rescheduling a pid replaces its crash time.
  void schedule_crash(ProcessId pid, Time at);
  /// Install the network adversary (sim/net.hpp). A disabled config (the
  /// default) is a no-op: send_from takes a single never-taken branch and
  /// the engine's RNG draw sequence is untouched, so runs stay bit-identical
  /// to an adversary-free engine. The adversary draws from its own private
  /// generator seeded from `net.seed` (or derived from the engine seed when
  /// 0).
  void set_network(NetConfig net);

  /// Finish configuration; runs on_init for every process. Idempotent.
  void init();

  /// --- execution ----------------------------------------------------------
  /// Advance one atomic step of one scheduled process. Returns false when no
  /// live process remains.
  bool step();
  /// Run `n` steps (or until all processes crashed). Returns steps executed.
  std::uint64_t run(std::uint64_t n);
  /// Resume execution up to tick `target` (one step is one tick, so a fresh
  /// engine after run_to(T) sits at now() == T unless the population fully
  /// crashed first). The checkpoint/resume primitive behind fuzz prefix
  /// snapshots: splitting one run into ANY sequence of run_to calls is
  /// bit-identical to the single cold run(n) — including the all-crashed
  /// edge, where the clock stops exactly one tick past the last live step
  /// and further calls are no-ops (pinned by tests/test_fuzz_evolve.cpp
  /// over the conformance-vector corpus). Returns now().
  Time run_to(Time target);
  /// Run until `pred()` holds, checking every `check_every` steps; gives up
  /// after `max_steps`. Returns true iff the predicate held.
  bool run_until(const std::function<bool()>& pred, std::uint64_t max_steps,
                 std::uint64_t check_every = 1);

  /// --- observation (ground truth; for monitors and experiments) ----------
  Time now() const { return now_; }
  std::uint32_t process_count() const { return static_cast<std::uint32_t>(processes_.size()); }
  bool is_live(ProcessId pid) const { return !crashed_[pid]; }
  bool is_correct(ProcessId pid) const { return crash_at_[pid] == kNever; }
  Time crash_time(ProcessId pid) const { return crash_at_[pid]; }
  std::size_t in_transit_count() const;
  const EngineStats& stats() const { return stats_; }
  Trace& trace() { return trace_; }
  Rng& rng() { return rng_; }

  /// Mirror the stats accumulated since the last flush into the metrics
  /// registry (no-op without one). run()/run_until() and the destructor call
  /// this, so snapshots taken after a run are complete; only callers driving
  /// step() directly need to flush by hand before snapshotting.
  void flush_metrics();

  template <class T>
  T& process_as(ProcessId pid) {
    return dynamic_cast<T&>(*processes_[pid]);
  }

 private:
  friend class Context;
  void send_from(ProcessId src, ProcessId dst, Port port, const Payload& payload);
  void apply_crashes_due();
  void deliver_phase(ProcessId pid, Context& ctx);
  /// Put one copy of a message in transit, due at `deliver_at`.
  void enqueue(Time deliver_at, ProcessId src, ProcessId dst, Port port,
               const Payload& payload);
  /// Retransmitting channel wrapper (net.retransmit_every > 0): after the
  /// adversary eats a send, re-offer it every retransmit_every ticks until
  /// one attempt survives (true; the message is in transit) or attempts run
  /// out (false; caller records the final drop).
  bool try_retransmit(ProcessId src, ProcessId dst, Port port,
                      const Payload& payload);

  /// Adversary state, allocated only when an enabled NetConfig is installed
  /// (send_from tests one pointer when off). The generator is private to the
  /// adversary so its draws never perturb the engine's sequence.
  struct NetState {
    NetConfig config;
    Rng rng;
    explicit NetState(const NetConfig& net, std::uint64_t engine_seed)
        : config(net),
          rng(net.seed != 0 ? net.seed : engine_seed ^ 0x6e65742d61647621ULL) {}
  };
  /// True iff the adversary eats the (src, dst) send at now_ (partition cut
  /// first — deterministic, no draw — then a loss draw).
  bool net_drops(ProcessId src, ProcessId dst);
  /// Deterministic partition-cut test at an arbitrary instant (retransmit
  /// attempts probe future ticks).
  bool net_cut(ProcessId src, ProcessId dst, Time at) const;

  struct PendingCrash {
    Time at = 0;
    ProcessId pid = kNoProcess;
    /// Sorted descending so the earliest (at, pid) sits at the back.
    friend bool operator<(const PendingCrash& a, const PendingCrash& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.pid > b.pid;
    }
  };

  EngineConfig config_;
  Rng rng_;
  Trace trace_;
  EngineStats stats_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool initialized_ = false;

  std::vector<std::unique_ptr<Process>> processes_;
  SoaTransit transit_;  ///< every message in flight; sized by init()
  /// Byte per pid (not vector<bool>): tested on every send and step.
  std::vector<std::uint8_t> crashed_;
  std::vector<Time> crash_at_;             // kNever if correct
  /// Crash times not yet applied, sorted descending by (at, pid): the step
  /// loop pays one comparison against the back until a crash is really due.
  /// May hold stale entries after a reschedule; apply filters them against
  /// crash_at_.
  std::vector<PendingCrash> pending_crashes_;
  /// Dense, ascending list of live process ids. Kept ascending (the
  /// scheduler draw sequence depends on the order, so a swap-remove would
  /// change runs); a crash erases at the known index in live_pos_ instead
  /// of rescanning and reallocating the whole list.
  std::vector<ProcessId> live_;
  std::vector<std::size_t> live_pos_;      // pid -> index in live_
  std::unique_ptr<DelayModel> delay_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<NetState> net_;  ///< null unless the adversary is enabled

  /// Devirtualized uniform delay draw (see DelayModel::uniform_bounds):
  /// when the model opts in, send_from inlines `min + below(span)` — the
  /// exact draw delay() would make — instead of a virtual call per message.
  bool delay_uniform_ = false;
  Time delay_min_ = 1;
  Time delay_span_ = 1;

  /// Receive-phase epoch stamps: sender_epoch_[src] == recv_epoch_ means
  /// src already delivered this step. Replaces a per-step O(n) bitmap fill.
  std::vector<std::uint64_t> sender_epoch_;
  std::uint64_t recv_epoch_ = 0;
  std::uint32_t sends_this_step_ = 0;

  /// Metrics shard (null unless EngineConfig::metrics was set). The hot path
  /// never touches it: per-step accounting stays in the plain stats_ fields
  /// it pays for anyway, and flush_metrics() mirrors the deltas into the
  /// registry at run boundaries — both halves of the E19 budget (0% off,
  /// near-0% on) fall out of that.
  std::unique_ptr<obs::Scope> metrics_;
  EngineStats flushed_;  ///< stats_ values already mirrored into the registry
  obs::Registry::Id m_steps_ = 0;
  obs::Registry::Id m_sent_ = 0;
  obs::Registry::Id m_delivered_ = 0;
  obs::Registry::Id m_dropped_ = 0;
  obs::Registry::Id m_crashes_ = 0;
  obs::Registry::Id m_lost_ = 0;
  obs::Registry::Id m_duplicated_ = 0;
  obs::Registry::Id m_retransmitted_ = 0;
};

inline Time Context::now() const { return engine_.now(); }
inline Rng& Context::rng() { return engine_.rng(); }
inline std::uint32_t Context::process_count() const { return engine_.process_count(); }
inline void Context::send(ProcessId dst, Port port, const Payload& payload) {
  engine_.send_from(self_, dst, port, payload);
}
inline void Context::record(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  engine_.trace().emit(EventKind::kCustom, engine_.now(), self_, a, b, c);
}
inline void Context::record_kind(std::uint8_t kind, std::uint64_t a,
                                 std::uint64_t b, std::uint64_t c) {
  engine_.trace().emit(static_cast<EventKind>(kind), engine_.now(), self_, a,
                       b, c);
}

}  // namespace wfd::sim
