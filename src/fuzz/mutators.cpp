#include "fuzz/mutators.hpp"

#include <algorithm>

#include "fuzz/fuzzer.hpp"

namespace wfd::fuzz {

namespace {

// Axis ids, mirroring the emission order in oracles.cpp run_features().
constexpr std::uint32_t kAxisTarget = 0;
constexpr std::uint32_t kAxisN = 1;
constexpr std::uint32_t kAxisScheduler = 2;
constexpr std::uint32_t kAxisDelay = 3;
constexpr std::uint32_t kAxisGraph = 4;

constexpr std::uint64_t kMaxSteps = 2000000;  // normalize()'s upper clamp

/// Coverage-guided choice: prefer candidates whose (axis, value) feature
/// bucket is still clear; fall back to a uniform draw when all are seen.
/// The rng is consumed exactly once either way.
std::uint64_t guided_pick(const std::vector<std::uint64_t>& candidates,
                          std::uint32_t axis, const CoverageMap& coverage,
                          sim::Rng& rng) {
  std::vector<std::uint64_t> unseen;
  for (const std::uint64_t value : candidates) {
    if (!coverage.test(feature_bucket(axis, value))) unseen.push_back(value);
  }
  const std::vector<std::uint64_t>& pool =
      unseen.empty() ? candidates : unseen;
  return pool[rng.below(pool.size())];
}

bool same_config(const FuzzConfig& a, const FuzzConfig& b) {
  return config_to_json(a, 0) == config_to_json(b, 0);
}

/// Everything-but-crashes equality: the crash_suffix family invariant.
bool same_except_crashes(FuzzConfig a, FuzzConfig b) {
  a.crashes.clear();
  b.crashes.clear();
  return same_config(a, b);
}

MutationPlan reseed(const FuzzConfig& parent, sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "reseed";
  FuzzConfig variant = parent;
  variant.seed = rng.next();
  plan.variants.push_back(normalize(variant));
  return plan;
}

MutationPlan runway(const FuzzConfig& parent, std::uint32_t max_family,
                    sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "runway";
  plan.runway_family = true;
  // Increasing `steps` on a normalized config is normalize-stable: every
  // other clamp is against steps/2 or a steps-independent floor, so the
  // variants differ ONLY in steps — the precondition for milestone grading.
  const std::uint64_t stride =
      1 + rng.below(std::max<std::uint64_t>(1, parent.steps / 8));
  for (std::uint32_t i = 0; i < max_family; ++i) {
    FuzzConfig variant = parent;
    variant.steps = parent.steps + i * stride;
    if (variant.steps > kMaxSteps) break;
    plan.variants.push_back(variant);
  }
  return plan;
}

MutationPlan crash_suffix(const FuzzConfig& parent, std::uint32_t max_family,
                          sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "crash_suffix";
  const sim::Time half = parent.steps / 2;
  const sim::Time lo = half / 2 + 1;
  // Candidate variants first: appending a late crash can raise the
  // convergence deadline and hence the normalized steps floor, so after
  // normalizing each candidate we level every variant to the family's max
  // steps (a normalize fixed point), so variants differ only in crashes.
  std::vector<FuzzConfig> candidates;
  std::uint64_t max_steps = parent.steps;
  for (std::uint32_t i = 0; i < max_family && half > lo; ++i) {
    FuzzConfig variant = parent;
    CrashPlan extra;
    extra.pid = static_cast<sim::ProcessId>(rng.below(parent.n));
    extra.at = static_cast<sim::Time>(rng.range(lo, half));
    variant.crashes.push_back(extra);
    variant = normalize(variant);
    if (variant.crashes.size() != parent.crashes.size() + 1) continue;
    candidates.push_back(std::move(variant));
    max_steps = std::max(max_steps, candidates.back().steps);
  }
  if (candidates.empty()) return plan;
  for (FuzzConfig& variant : candidates) {
    variant.steps = max_steps;
  }
  const FuzzConfig reference = candidates.front();  // outlives the moves below
  for (FuzzConfig& variant : candidates) {
    if (!same_except_crashes(variant, reference)) continue;
    if (std::any_of(plan.variants.begin(), plan.variants.end(),
                    [&](const FuzzConfig& v) { return same_config(v, variant); })) {
      continue;
    }
    plan.variants.push_back(std::move(variant));
  }
  return plan;
}

MutationPlan scheduler_hop(const FuzzConfig& parent,
                           const CoverageMap& coverage, sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "scheduler_hop";
  std::vector<std::uint64_t> kinds;
  for (std::uint64_t k = 0; k < 4; ++k) {
    if (k != static_cast<std::uint64_t>(parent.scheduler)) kinds.push_back(k);
  }
  FuzzConfig variant = parent;
  variant.scheduler = static_cast<SchedulerKind>(
      guided_pick(kinds, kAxisScheduler, coverage, rng));
  variant.weights.clear();
  variant.pauses.clear();
  if (variant.scheduler == SchedulerKind::kWeighted) {
    for (std::uint32_t p = 0; p < parent.n; ++p) {
      variant.weights.push_back(1 + rng.below(1000));
    }
  } else if (variant.scheduler == SchedulerKind::kPausing) {
    const sim::Time half = std::max<sim::Time>(2, parent.steps / 2);
    const std::uint64_t count = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < count; ++i) {
      PausePlan pause;
      pause.pid = static_cast<sim::ProcessId>(rng.below(parent.n));
      pause.from = rng.below(half - 1);
      pause.until = pause.from + 1 + rng.below(half - pause.from);
      variant.pauses.push_back(pause);
    }
  }
  plan.variants.push_back(normalize(variant));
  return plan;
}

MutationPlan delay_hop(const FuzzConfig& parent, const CoverageMap& coverage,
                       sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "delay_hop";
  std::vector<std::uint64_t> kinds;
  for (std::uint64_t k = 0; k < 4; ++k) {
    if (k != static_cast<std::uint64_t>(parent.delay)) kinds.push_back(k);
  }
  FuzzConfig variant = parent;
  variant.delay =
      static_cast<DelayKind>(guided_pick(kinds, kAxisDelay, coverage, rng));
  variant.delay_min = 1 + rng.below(16);
  variant.delay_max = variant.delay_min + rng.below(48);
  variant.geo_p = 0.02 + rng.uniform() * 0.8;
  if (variant.delay == DelayKind::kPartialSynchrony) {
    variant.gst = rng.below(std::max<sim::Time>(1, parent.steps / 2));
  }
  plan.variants.push_back(normalize(variant));
  return plan;
}

MutationPlan graph_hop(const FuzzConfig& parent, const CoverageMap& coverage,
                       sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "graph_hop";
  std::vector<std::uint64_t> kinds;
  for (std::uint64_t k = 0; k < 5; ++k) {
    if (k != static_cast<std::uint64_t>(parent.graph)) kinds.push_back(k);
  }
  FuzzConfig variant = parent;
  variant.graph =
      static_cast<GraphKind>(guided_pick(kinds, kAxisGraph, coverage, rng));
  plan.variants.push_back(normalize(variant));
  return plan;
}

MutationPlan target_hop(const FuzzConfig& parent,
                        const std::vector<TargetKind>& pool,
                        const CoverageMap& coverage, sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "target_hop";
  std::vector<std::uint64_t> kinds;
  for (const TargetKind target : pool) {
    if (target != parent.target) {
      kinds.push_back(static_cast<std::uint64_t>(target));
    }
  }
  FuzzConfig variant = parent;
  if (!kinds.empty()) {
    variant.target = static_cast<TargetKind>(
        guided_pick(kinds, kAxisTarget, coverage, rng));
  }
  plan.variants.push_back(normalize(variant));
  return plan;
}

MutationPlan population(const FuzzConfig& parent, const CoverageMap& coverage,
                        sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "population";
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t n = 2; n <= 8; ++n) {
    if (n != parent.n) sizes.push_back(n);
  }
  FuzzConfig variant = parent;
  variant.n =
      static_cast<std::uint32_t>(guided_pick(sizes, kAxisN, coverage, rng));
  plan.variants.push_back(normalize(variant));
  return plan;
}

MutationPlan knob_jitter(const FuzzConfig& parent, sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "knob_jitter";
  FuzzConfig variant = parent;
  const sim::Time half = std::max<sim::Time>(2, parent.steps / 2);
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < edits; ++i) {
    switch (rng.below(6)) {
      case 0: {  // add an internal detector mistake window
        detect::MistakeWindow window;
        window.watcher = static_cast<sim::ProcessId>(rng.below(parent.n));
        window.subject = static_cast<sim::ProcessId>(rng.below(parent.n));
        window.from = rng.below(half - 1);
        window.until = window.from + 1 + rng.below(half - window.from);
        variant.mistakes.push_back(window);
        break;
      }
      case 1:
        if (!variant.mistakes.empty()) {
          variant.mistakes.erase(variant.mistakes.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     rng.below(variant.mistakes.size())));
        }
        break;
      case 2: variant.detector_lag = 1 + rng.below(200); break;
      case 3: variant.member0_burst = static_cast<std::uint32_t>(rng.below(7)); break;
      case 4: variant.grant_holdoff = rng.below(51); break;
      case 5: variant.exclusive_from = rng.below(half + 1); break;
    }
  }
  plan.variants.push_back(normalize(variant));
  return plan;
}

// Campaigns grade legal targets CLEAN, so this mutator must stay inside the
// liveness-admissible adversary envelope (the v10/v14 regimes), never the
// v13 one: duplication alone is benign, but loss or a partition needs a
// retransmit schedule guaranteed to land an attempt past the disturbance —
// a send is retried every `every` ticks up to `max` times, so coverage is
// every*(max-1) ticks from first send.
void covering_retransmit(FuzzConfig& variant, sim::Time window,
                         sim::Rng& rng) {
  variant.retransmit_max = 48 + static_cast<std::uint32_t>(rng.below(17));
  const sim::Time floor =
      (2 * window + 256) / (variant.retransmit_max - 1) + 1;
  variant.retransmit_every = floor + rng.below(64);
}

MutationPlan net_adversary(const FuzzConfig& parent, sim::Rng& rng) {
  MutationPlan plan;
  plan.mutator = "net_adversary";
  FuzzConfig variant = parent;
  const sim::Time half = std::max<sim::Time>(2, parent.steps / 2);
  if (!has_network_adversary(parent)) {
    switch (rng.below(3)) {
      case 0:
        // Bounded retries leave a loss_rate^max residual per message; at
        // rate <= 0.31 and max >= 48 that is ~1e-25 — unreachable even for
        // the deterministic rng across a whole campaign.
        variant.loss_rate = 0.01 + rng.uniform() * 0.3;
        covering_retransmit(variant, /*window=*/0, rng);
        break;
      case 1:
        if (parent.target == TargetKind::kDining) {
          variant.dup_rate = 0.01 + rng.uniform() * 0.3;
        } else {  // dup is out of envelope here; explore loss instead
          variant.loss_rate = 0.01 + rng.uniform() * 0.3;
          covering_retransmit(variant, /*window=*/0, rng);
        }
        break;
      case 2: {  // a healed bipartition outlived by the retry schedule
        sim::PartitionWindow window;
        window.side.push_back(static_cast<sim::ProcessId>(rng.below(parent.n)));
        window.from = 1 + rng.below(half / 2);
        const sim::Time length = 200 + rng.below(1200);
        window.until = std::min(window.from + length, half);
        if (window.until <= window.from) window.until = window.from + 1;
        covering_retransmit(variant, window.until - window.from, rng);
        variant.partitions.push_back(std::move(window));
        break;
      }
    }
  } else if (rng.below(4) == 0) {
    variant.loss_rate = 0.0;
    variant.dup_rate = 0.0;
    variant.partitions.clear();
    variant.retransmit_every = 0;
  } else {
    // Jitter the rates but never past the envelope, and never touch the
    // retransmit schedule that keeps the parent's disturbances recoverable.
    variant.loss_rate = std::min(0.31, parent.loss_rate * (0.5 + rng.uniform()));
    variant.dup_rate = std::min(0.9, parent.dup_rate * (0.5 + rng.uniform()));
  }
  plan.variants.push_back(normalize(variant));
  return plan;
}

// Clamp a config back into the clean-campaign adversary envelope (see
// net_adversary above). Applied to every mutation output AND every corpus
// parent, so the invariant holds inductively no matter how targets and
// adversary knobs recombine across generations:
//  * duplication is pinned benign only for the plain dining protocol (v10);
//    the scripted box's command channel and the extraction reduction's
//    suspicion machinery are not idempotent, so every other target gets
//    dup_rate scrubbed to 0;
//  * loss and partitions are recoverable only under a retransmit schedule
//    that outlasts them (retries stop at the first delivery, so the wrapper
//    itself never duplicates).
void scrub_adversary_envelope(FuzzConfig& config) {
  if (config.target != TargetKind::kDining) config.dup_rate = 0.0;
  config.loss_rate = std::min(config.loss_rate, 0.31);
  sim::Time longest = 0;
  for (const sim::PartitionWindow& window : config.partitions) {
    if (window.until == sim::kNever) {
      longest = sim::kNever;
      break;
    }
    longest = std::max(longest, window.until - window.from);
  }
  const bool needs_retransmit = config.loss_rate > 0.0 || longest > 0;
  if (!needs_retransmit) return;
  if (longest == sim::kNever) {
    // Permanent partitions are unrecoverable by construction; campaigns
    // must never explore them (adversary vectors own that regime).
    config.partitions.clear();
    longest = 0;
  }
  if (config.retransmit_max < 48) config.retransmit_max = 48;
  const sim::Time floor =
      (2 * longest + 256) / (config.retransmit_max - 1) + 1;
  if (config.retransmit_every < floor) config.retransmit_every = floor;
  config = normalize(config);
  // normalize caps the retry schedule (every <= 4096, max <= 64); if a
  // pathological hand-seeded window still outruns it, the window has to go.
  if (config.retransmit_every * (config.retransmit_max - 1) <
      2 * longest + 256) {
    config.partitions.clear();
    config = normalize(config);
  }
}

}  // namespace

MutationPlan mutate(const FuzzConfig& raw_parent, std::uint32_t max_family,
                    sim::Rng& rng, const CoverageMap& coverage,
                    const std::vector<TargetKind>& pool) {
  FuzzConfig parent = normalize(raw_parent);
  scrub_adversary_envelope(parent);
  if (max_family == 0) max_family = 1;
  MutationPlan plan;
  // Family mutators (runway, crash_suffix) trade coverage-per-run for
  // depth (and runway for milestone throughput) — their variants mostly
  // revisit the parent's feature buckets. Keep them at 2/16 of draws so
  // the guided single-run hops dominate the coverage race.
  switch (rng.below(16)) {
    case 0: plan = reseed(parent, rng); break;
    case 1: plan = runway(parent, max_family, rng); break;
    case 2: plan = crash_suffix(parent, max_family, rng); break;
    case 3:
    case 4: plan = scheduler_hop(parent, coverage, rng); break;
    case 5:
    case 6: plan = delay_hop(parent, coverage, rng); break;
    case 7:
    case 8: plan = graph_hop(parent, coverage, rng); break;
    case 9:
    case 10:
      plan = target_hop(parent, pool.empty() ? legal_targets() : pool,
                        coverage, rng);
      break;
    case 11:
    case 12: plan = population(parent, coverage, rng); break;
    case 13:
    case 14: plan = knob_jitter(parent, rng); break;
    case 15: plan = net_adversary(parent, rng); break;
  }
  // Envelope guard runs on every output (not just net_adversary's): target
  // hops can carry adversary knobs onto a target that doesn't tolerate
  // them, and corpus directories may be hand-seeded with anything.
  for (FuzzConfig& variant : plan.variants) {
    scrub_adversary_envelope(variant);
  }
  // A mutation that normalized back onto the parent (or produced nothing)
  // would waste its whole slot re-running a known shape; fall back to a
  // reseed, which always moves.
  if (!plan.runway_family) {
    std::vector<FuzzConfig> kept;
    for (FuzzConfig& variant : plan.variants) {
      if (!same_config(variant, parent)) kept.push_back(std::move(variant));
    }
    plan.variants = std::move(kept);
  }
  if (plan.variants.empty()) plan = reseed(parent, rng);
  return plan;
}

}  // namespace wfd::fuzz
