// Property oracles: execute one FuzzConfig and grade the run against the
// machine-checkable obligations of the paper's model —
//
//  * wx_safety    — eventual weak exclusion: no two live conflicting diners
//                   eat simultaneously at or after the config's convergence
//                   deadline (dining targets; graded by dining::DiningMonitor);
//  * wait_free    — every correct hungry diner eats within the config's
//                   wait bound (dining targets);
//  * activity     — the run made progress at all (a zero-meal dining run
//                   means the service deadlocked);
//  * detector_completeness — crashed subjects end up permanently suspected
//                   by every correct watcher (extraction targets; graded by
//                   detect::DetectorHistory over the extracted tag);
//  * detector_accuracy — no correct watcher starts a suspicion episode
//                   against a correct subject at or after the deadline, and
//                   none still suspects one at the end (extraction targets;
//                   strictly stronger than the end-state-only
//                   eventual_strong_accuracy — it catches oscillation);
//  * engine       — simulator invariants: event time monotonicity, no step
//                   by a crashed process, end-of-run message conservation
//                   (sent + duplicated == delivered + dropped + in transit;
//                   the duplicated term is zero without a network adversary).
//
// run_config is a pure function of the (normalized) config: same config,
// same failures, bit for bit — the property that makes .repro replay and
// delta-debugging shrinks trustworthy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/config.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace wfd::fuzz {

struct OracleFailure {
  std::string oracle;  ///< failing oracle's name (stable identifier)
  sim::Time at = 0;    ///< violation instant (oracle-specific anchor)
  std::string detail;  ///< human-readable evidence
};

struct RunStats {
  std::uint64_t steps = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_lost = 0;        ///< adversary losses (subset of dropped)
  std::uint64_t messages_duplicated = 0;  ///< adversary duplicate copies
  std::uint64_t messages_retransmitted = 0;  ///< channel retransmit attempts
  std::uint64_t in_transit = 0;
  std::uint64_t crashes = 0;
  std::uint64_t total_meals = 0;
  std::uint64_t exclusion_violations = 0;
  std::uint64_t late_violations = 0;       ///< at or after the deadline
  sim::Time last_violation = 0;
  std::uint64_t detector_flips = 0;
  std::uint64_t late_suspicion_episodes = 0;
  sim::Time deadline = 0;
  sim::Time wait_bound = 0;
};

struct RunResult {
  std::vector<OracleFailure> failures;
  RunStats stats;
  std::uint64_t signature = 0;  ///< feature hash for the novelty corpus

  bool ok() const { return failures.empty(); }
  /// Most significant failure (failures are appended in severity order).
  const OracleFailure* primary() const {
    return failures.empty() ? nullptr : &failures.front();
  }
};

/// Clamp a raw (sampled, shrunk or hand-edited) config into the domain
/// run_config supports: n and steps bounded, plans referencing only real
/// pids with in-run times, broken targets forced into the regime where
/// their defect is expressible. Deterministic, idempotent.
FuzzConfig normalize(FuzzConfig config);

/// Observability hookup for a single graded run (wfd_trace export, metrics
/// validation). Inputs configure the engine's trace retention and registry
/// binding; outputs carry the retained events back out. Capturing never
/// perturbs the run itself — the verdict, stats and signature stay bit-
/// identical to an uncaptured run of the same config.
struct RunCapture {
  // --- inputs ---
  std::size_t trace_capacity = 1 << 20;           ///< retained-event bound
  std::uint64_t retain_kinds = sim::kAllEventKinds;  ///< retention kind mask
  obs::Registry* metrics = nullptr;               ///< optional registry
  // --- outputs ---
  std::vector<sim::Event> events;  ///< retained trace, in emission order
  std::uint64_t truncated = 0;     ///< retained-kind events past capacity
  sim::Time end_time = 0;          ///< engine clock when the run finished
};

/// Build the target system described by `config`, run it, grade it.
RunResult run_config(const FuzzConfig& config);

/// Same, capturing the trace (and optionally metrics) along the way.
RunResult run_config(const FuzzConfig& config, RunCapture& capture);

/// One run-shape feature: a stable axis id plus the exact value
/// compute_signature folds for that axis. The signature is the mix64-fold
/// of this sequence in order (first axis seeds the hash), so the feature
/// view and the signature can never drift apart; the coverage map hashes
/// each (axis, value) pair into its own bucket instead of folding them.
struct RunFeature {
  std::uint32_t axis = 0;
  std::uint64_t value = 0;
};

/// The ordered feature sequence of one graded run. Pure function of
/// (normalized config, result) — same inputs, same features, bit for bit.
std::vector<RunFeature> run_features(const FuzzConfig& config,
                                     const RunResult& result);

/// An incrementally executable graded run: the builder half of run_config,
/// split out so a runway family can share one constructed system between
/// its milestones. The contract that makes this sound:
///
///  * advance_to(T) is Engine::run_to — splitting a run into any milestone
///    sequence is bit-identical to the cold run;
///  * grade() is read-only: grading at a milestone and then advancing
///    further leaves the engine exactly where a never-graded run would be.
///
/// `config` must already be normalized; it provides the built system
/// (population, adversaries, crash plan). grade() takes the variant config
/// actually being graded — same built fields, its own steps — so one
/// engine serves a whole runway family.
class ConfigRun {
 public:
  explicit ConfigRun(const FuzzConfig& config, RunCapture* capture = nullptr);
  ~ConfigRun();
  ConfigRun(const ConfigRun&) = delete;
  ConfigRun& operator=(const ConfigRun&) = delete;

  sim::Engine& engine();
  /// Advance to tick `target` (no-op if already there or fully crashed).
  void advance_to(sim::Time target);
  /// Grade the current engine state as a completed run of `graded`.
  RunResult grade(const FuzzConfig& graded) const;
  /// Copy retained trace/end-time into the RunCapture (once, at the end).
  void fill_capture();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wfd::fuzz
