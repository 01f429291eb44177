#include "fuzz/evolve.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>

#include "fuzz/fuzzer.hpp"
#include "fuzz/mutators.hpp"
#include "fuzz/snapshot.hpp"
#include "mc/hash.hpp"
#include "sim/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WFD_FUZZ_HAVE_FORK 1
#include <sys/wait.h>
#include <unistd.h>
#else
#define WFD_FUZZ_HAVE_FORK 0
#endif

namespace wfd::fuzz {

namespace {

using mc::detail::mix64;

/// Per-slot generator: a pure function of (master_seed, generation, slot),
/// so plan materialization never depends on execution order or job count.
sim::Rng slot_rng(std::uint64_t master_seed, std::uint64_t generation,
                  std::uint64_t slot) {
  return sim::Rng(mix64(master_seed ^ 0x65766f6c76652121ULL) ^
                  mix64(generation * 0x9e3779b97f4a7c15ULL + slot * 2 + 1));
}

/// Coverage-guided fresh sampling: swarm-draw a handful of candidates and
/// keep the one whose feature buckets open the most unseen coverage. The
/// result-dependent axes are scored at zero, which is identical across
/// candidates and so never changes the ranking — the guidance acts purely
/// on the config axes, steering exploration toward schedule shapes the
/// campaign has not graded yet. This is where evolve out-earns uniform
/// swarm sampling at an equal run budget.
constexpr std::uint64_t kFreshCandidates = 8;

FuzzConfig guided_sample(std::uint64_t master_seed, std::uint64_t base_index,
                         const std::vector<TargetKind>& pool,
                         const CoverageMap& coverage) {
  FuzzConfig best;
  std::uint64_t best_score = 0;
  for (std::uint64_t j = 0; j < kFreshCandidates; ++j) {
    FuzzConfig candidate = normalize(
        sample_config(master_seed, base_index * kFreshCandidates + j, pool));
    std::uint64_t score = 0;
    for (const std::uint32_t bucket :
         coverage_buckets(candidate, RunResult{})) {
      if (!coverage.test(bucket)) ++score;
    }
    if (j == 0 || score > best_score) {
      best = std::move(candidate);
      best_score = score;
    }
  }
  return best;
}

/// Execute one generation's plans with `jobs` forked workers (slot
/// round-robin). Any worker-side failure leaves that slot empty; the
/// caller re-runs missing slots inline, so degraded parallelism can slow a
/// campaign down but never change its results.
std::vector<std::vector<FamilyResult>> execute_plans(
    const std::vector<MutationPlan>& plans, int jobs, SnapshotStats* stats) {
  std::vector<std::vector<FamilyResult>> slot_results(plans.size());
  std::vector<bool> done(plans.size(), false);

#if WFD_FUZZ_HAVE_FORK
  if (jobs > 1 && plans.size() > 1) {
    const int workers =
        static_cast<int>(std::min<std::size_t>(plans.size(),
                                               static_cast<std::size_t>(jobs)));
    std::vector<int> read_fds;
    std::vector<pid_t> children;
    for (int w = 0; w < workers; ++w) {
      int fds[2];
      if (::pipe(fds) != 0) break;
      const pid_t child = ::fork();
      if (child < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        break;
      }
      if (child == 0) {
        // Worker: close inherited read ends, run our slot stripe, stream
        // each slot's results as soon as they exist (record: slot index,
        // result count, results), exit without atexit.
        for (const int fd : read_fds) ::close(fd);
        ::close(fds[0]);
        bool ok = true;
        for (std::size_t slot = static_cast<std::size_t>(w);
             slot < plans.size() && ok;
             slot += static_cast<std::size_t>(workers)) {
          SnapshotStats ignored;
          const std::vector<FamilyResult> results =
              run_family(plans[slot], &ignored);
          std::string payload;
          wire::put_u64(&payload, slot);
          wire::put_u64(&payload, results.size());
          for (const FamilyResult& result : results) {
            wire::put_family_result(&payload, result);
          }
          ok = wire::write_all(fds[1], payload);
        }
        ::close(fds[1]);
        ::_exit(ok ? 0 : 1);
      }
      ::close(fds[1]);
      read_fds.push_back(fds[0]);
      children.push_back(child);
    }
    // Drain workers in index order. A later worker may block on a full
    // pipe until we get to it — that serializes some transfer, never
    // deadlocks (we always drain every pipe to EOF).
    for (std::size_t w = 0; w < read_fds.size(); ++w) {
      std::string payload;
      const bool read_ok = wire::read_all(read_fds[w], &payload);
      ::close(read_fds[w]);
      int status = 0;
      ::waitpid(children[w], &status, 0);
      if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        continue;  // stripe re-run inline below
      }
      wire::Reader reader(std::move(payload));
      while (!reader.at_end()) {
        std::uint64_t slot = 0;
        std::uint64_t count = 0;
        if (!reader.get_u64(&slot) || slot >= plans.size() ||
            !reader.get_u64(&count) || count > 4096) {
          break;
        }
        std::vector<FamilyResult> results;
        bool ok = true;
        for (std::uint64_t i = 0; i < count && ok; ++i) {
          FamilyResult result;
          ok = reader.get_family_result(&result);
          if (ok) results.push_back(std::move(result));
        }
        if (!ok) break;
        slot_results[slot] = std::move(results);
        done[slot] = true;
      }
    }
    if (stats != nullptr) {
      // Worker-side snapshot stats don't cross the pipe; recover the
      // counts from the results themselves so the totals stay exact.
      for (std::size_t slot = 0; slot < plans.size(); ++slot) {
        if (!done[slot]) continue;
        ++stats->families;
        for (const FamilyResult& result : slot_results[slot]) {
          if (result.resumed) ++stats->milestone_runs; else ++stats->cold_runs;
        }
      }
    }
  }
#else
  (void)jobs;
#endif

  for (std::size_t slot = 0; slot < plans.size(); ++slot) {
    if (done[slot]) continue;
    slot_results[slot] = run_family(plans[slot], stats);
  }
  return slot_results;
}

}  // namespace

EvolveResult run_evolve_campaign(
    const EvolveOptions& options,
    const std::function<void(const std::string&)>& narrate) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  EvolveOptions opts = options;
  if (opts.generation_size == 0) opts.generation_size = 1;
  if (opts.max_family == 0) opts.max_family = 1;
  const std::vector<TargetKind> pool =
      opts.targets.empty() ? legal_targets() : opts.targets;

  obs::Registry::Id m_runs = 0, m_failing = 0, m_novel = 0, m_resumed = 0,
                    m_bits = 0;
  std::unique_ptr<obs::Scope> mscope;
  if (opts.metrics != nullptr) {
    m_runs = opts.metrics->counter("fuzz.evolve.runs");
    m_failing = opts.metrics->counter("fuzz.evolve.failing");
    m_novel = opts.metrics->counter("fuzz.evolve.novel");
    m_resumed = opts.metrics->counter("fuzz.evolve.resumed_runs");
    m_bits = opts.metrics->gauge("fuzz.evolve.coverage_bits");
    mscope = std::make_unique<obs::Scope>(*opts.metrics);
  }

  EvolveResult result;
  CoverageMap coverage;
  Corpus corpus;
  std::set<std::uint64_t> signatures;
  SnapshotStats snap_stats;
  std::vector<std::pair<FuzzConfig, std::string>> to_shrink;
  std::set<std::pair<std::string, std::string>> shrink_keys;

  if (!opts.corpus_dir.empty()) {
    std::string error;
    const std::uint64_t loaded = corpus.load(opts.corpus_dir, coverage, &error);
    if (narrate && loaded > 0) {
      narrate("loaded " + std::to_string(loaded) + " corpus entries from " +
              opts.corpus_dir);
    }
    if (corpus.skipped_corrupt() > 0) {
      if (opts.metrics != nullptr) {
        obs::Scope scope(*opts.metrics);
        scope.add(opts.metrics->counter("fuzz.corpus.skipped_corrupt"),
                  corpus.skipped_corrupt());
      }
      if (narrate) {
        narrate("corpus load skipped " +
                std::to_string(corpus.skipped_corrupt()) +
                " corrupt entr" +
                (corpus.skipped_corrupt() == 1 ? "y" : "ies") +
                (error.empty() ? "" : " (first: " + error + ")"));
      }
    } else if (narrate && !error.empty()) {
      narrate("corpus load warning: " + error);
    }
    for (const CorpusEntry& entry : corpus.entries()) {
      signatures.insert(entry.signature);
    }
  }

  for (std::uint64_t gen = 0; gen < opts.generations; ++gen) {
    if (opts.abort != nullptr && opts.abort->load(std::memory_order_acquire)) {
      if (narrate) narrate("campaign aborted before generation " +
                           std::to_string(gen));
      break;
    }
    // Phase 1: materialize every slot's plan against the GENERATION-START
    // coverage map and corpus. This is the determinism hinge: nothing in
    // plan construction can see another slot's results.
    std::vector<MutationPlan> plans;
    plans.reserve(opts.generation_size);
    for (std::uint32_t slot = 0; slot < opts.generation_size; ++slot) {
      sim::Rng rng = slot_rng(opts.master_seed, gen, slot);
      const CorpusEntry* parent =
          corpus.entries().empty() ? nullptr : corpus.pick(rng);
      if (parent == nullptr || rng.chance(opts.fresh_rate)) {
        MutationPlan plan;
        plan.mutator = "sample";
        plan.variants.push_back(
            guided_sample(opts.master_seed,
                          gen * opts.generation_size + slot, pool, coverage));
        plans.push_back(std::move(plan));
      } else {
        plans.push_back(
            mutate(parent->config, opts.max_family, rng, coverage, pool));
      }
    }

    // Phase 2: execute (forked workers when jobs > 1; results per slot).
    const std::vector<std::vector<FamilyResult>> slot_results =
        execute_plans(plans, opts.jobs, &snap_stats);

    // Phase 3: account in slot order, single-threaded.
    for (std::size_t slot = 0; slot < slot_results.size(); ++slot) {
      for (const FamilyResult& run : slot_results[slot]) {
        ++result.stats.executed;
        if (mscope) {
          mscope->add(m_runs);
          if (run.resumed) mscope->add(m_resumed);
        }
        if (signatures.insert(run.result.signature).second) {
          ++result.stats.novel;
          if (mscope) mscope->add(m_novel);
        }
        CorpusEntry entry;
        entry.config = run.config;
        entry.signature = run.result.signature;
        entry.buckets = run.buckets;
        corpus.admit(std::move(entry), coverage);
        if (!run.result.ok()) {
          ++result.stats.failing;
          if (mscope) mscope->add(m_failing);
          const std::string& oracle = run.result.primary()->oracle;
          ++result.stats.oracle_failures[oracle];
          const std::pair<std::string, std::string> key{
              to_string(run.config.target), oracle};
          if (shrink_keys.insert(key).second &&
              to_shrink.size() < opts.max_repros) {
            to_shrink.emplace_back(run.config, oracle);
            if (narrate) {
              narrate("gen " + std::to_string(gen) + " slot " +
                      std::to_string(slot) + " [" + key.first + "/" +
                      plans[slot].mutator + "] failed oracle " + oracle +
                      ": " + run.result.primary()->detail);
            }
          }
        }
      }
    }
    if (narrate) {
      narrate("gen " + std::to_string(gen) + ": " +
              std::to_string(result.stats.executed) + " runs, " +
              std::to_string(coverage.bits()) + " coverage bits, corpus " +
              std::to_string(corpus.entries().size()));
    }
    // Periodic corpus checkpoint: content-addressed write+rename saves are
    // idempotent, so checkpointing every generation costs only the NEW
    // entries and a kill between checkpoints loses at most one
    // generation's discoveries.
    if (opts.checkpoint_every > 0 && !opts.corpus_dir.empty() &&
        (gen + 1) % opts.checkpoint_every == 0) {
      std::string error;
      if (!corpus.save(opts.corpus_dir, &error) && narrate) {
        narrate("corpus checkpoint failed: " + error);
      }
    }
    if (opts.on_generation) {
      result.stats.coverage_bits = coverage.bits();
      result.stats.corpus_entries = corpus.entries().size();
      result.stats.families = snap_stats.families;
      result.stats.cold_runs = snap_stats.cold_runs;
      result.stats.milestone_runs = snap_stats.milestone_runs;
      result.stats.elapsed_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                start)
              .count());
      opts.on_generation(gen, result.stats);
    }
  }

  if (!opts.corpus_dir.empty()) {
    std::string error;
    if (!corpus.save(opts.corpus_dir, &error) && narrate) {
      narrate("corpus save failed: " + error);
    }
  }

  // Shrink phase: sequential, in parent, discovery order — identical at
  // every job width because the failing set is.
  for (const auto& [config, oracle] : to_shrink) {
    if (opts.abort != nullptr && opts.abort->load(std::memory_order_acquire)) {
      break;
    }
    if (!opts.shrink) {
      const FuzzConfig normalized = normalize(config);
      const RunResult rerun = run_config(normalized);
      ++result.stats.shrink_runs;
      if (!rerun.ok()) {
        result.repros.push_back(ReproCase{normalized, rerun.primary()->oracle,
                                          rerun.primary()->at,
                                          rerun.primary()->detail});
      }
      continue;
    }
    ShrinkOutcome outcome = shrink_case(config, opts.max_shrink_attempts);
    result.stats.shrink_runs += outcome.runs;
    if (!outcome.reproduced) {
      if (narrate) {
        narrate("shrink of " + oracle +
                " case did not reproduce the failure; dropping it");
      }
      continue;
    }
    if (narrate) {
      narrate("shrunk " + oracle + " case in " +
              std::to_string(outcome.attempts) + " attempts (" +
              std::to_string(outcome.accepted) + " reductions)");
    }
    result.repros.push_back(std::move(outcome.repro));
  }

  result.stats.coverage_bits = coverage.bits();
  result.stats.corpus_entries = corpus.entries().size();
  result.stats.families = snap_stats.families;
  result.stats.cold_runs = snap_stats.cold_runs;
  result.stats.milestone_runs = snap_stats.milestone_runs;
  if (opts.metrics != nullptr) {
    opts.metrics->set_gauge(m_bits,
                            static_cast<double>(result.stats.coverage_bits));
  }
  for (const CorpusEntry& entry : corpus.entries()) {
    result.corpus_signatures.push_back(entry.signature);
  }
  std::sort(result.corpus_signatures.begin(), result.corpus_signatures.end());
  result.stats.elapsed_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count());
  return result;
}

}  // namespace wfd::fuzz
