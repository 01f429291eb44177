// Coverage-guided evolutionary campaign: the successor to the swarm loop in
// fuzzer.hpp. Each generation materializes `generation_size` mutation
// plans (novelty-weighted parents from the live corpus, coverage-guided
// mutators, fresh swarm samples mixed in), grades them (runway families
// from one engine, everything else cold; fuzz/snapshot.hpp), and folds the
// results back into the coverage map and corpus in slot order.
//
// Determinism contract (pinned by tests/test_fuzz_evolve.cpp): the corpus
// contents, coverage bitmap, failing set and shrunk repros are a pure
// function of (master_seed, generations, generation_size, max_family,
// pool, corpus_dir contents) — independent of --jobs, because
//
//  * plan materialization happens up front in the parent from per-slot
//    seeded Rngs against the GENERATION-START coverage map;
//  * execution is a pure function of each plan (cold and milestone paths
//    are bit-identical by the snapshot contract);
//  * accounting walks results in slot order in the parent, single-threaded.
//
// Parallelism is `jobs` forked worker processes (slot round-robin), never
// threads. A multithreaded host (the serve daemon) keeps jobs = 1.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fuzz/config.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/coverage.hpp"
#include "obs/metrics.hpp"

namespace wfd::fuzz {

struct EvolveStats;

struct EvolveOptions {
  std::uint64_t master_seed = 1;
  std::uint64_t generations = 8;
  std::uint32_t generation_size = 16;  ///< mutation plans per generation
  std::uint32_t max_family = 6;        ///< variants per runway/crash family
  /// Worker processes (forked). 1 = inline. Any value yields bit-identical
  /// campaign results; only wall-clock changes.
  int jobs = 1;
  /// Probability that a slot draws a fresh (coverage-guided, best-of-K)
  /// swarm sample instead of mutating a corpus parent (exploration floor).
  double fresh_rate = 0.5;
  std::vector<TargetKind> targets;  ///< empty = all legal targets
  /// Corpus directory: loaded before generation 0, new entries saved after
  /// the last. Empty = in-memory only.
  std::string corpus_dir;
  bool shrink = true;
  std::uint32_t max_shrink_attempts = 160;
  std::uint32_t max_repros = 4;
  obs::Registry* metrics = nullptr;  ///< optional campaign counters
  /// Checkpoint the corpus to corpus_dir every N completed generations
  /// (0 = only after the last). Saves are content-addressed write+rename,
  /// so a checkpoint is always a consistent corpus on disk — the wfd_serve
  /// --evolve mode sets 1 so a long campaign survives a daemon restart.
  std::uint64_t checkpoint_every = 0;
  /// Cooperative cancellation, polled between generations and between
  /// shrink cases: when it goes true the campaign stops early and returns
  /// whatever it has (stats/corpus reflect the completed generations).
  /// Everything already executed stays deterministic. nullptr = never.
  const std::atomic<bool>* abort = nullptr;
  /// Fired after each generation's (single-threaded) accounting with the
  /// 0-based generation index and the running stats; coverage_bits and
  /// corpus_entries are up to date at the instant of the call. A long-
  /// lived host (the serve daemon) streams these as progress heartbeats.
  std::function<void(std::uint64_t generation, const EvolveStats& so_far)>
      on_generation;
};

struct EvolveStats {
  std::uint64_t executed = 0;   ///< graded runs (all family variants)
  std::uint64_t failing = 0;
  std::uint64_t novel = 0;          ///< runs with an unseen signature
  std::uint64_t coverage_bits = 0;  ///< final coverage-map population
  std::uint64_t corpus_entries = 0;
  std::uint64_t families = 0;
  std::uint64_t cold_runs = 0;
  std::uint64_t milestone_runs = 0;  ///< runway grades served from one engine
  std::uint64_t shrink_runs = 0;
  std::uint64_t elapsed_ms = 0;
  std::map<std::string, std::uint64_t> oracle_failures;
};

struct EvolveResult {
  EvolveStats stats;
  std::vector<ReproCase> repros;
  /// Sorted signatures of the final corpus — the compact fingerprint the
  /// cross-jobs determinism test compares.
  std::vector<std::uint64_t> corpus_signatures;
};

/// Run a coverage-guided campaign. Must be called from a single-threaded
/// process when jobs > 1 (fork safety).
EvolveResult run_evolve_campaign(
    const EvolveOptions& options,
    const std::function<void(const std::string&)>& narrate = {});

}  // namespace wfd::fuzz
