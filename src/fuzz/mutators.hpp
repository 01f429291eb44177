// Structured mutators over the FuzzConfig envelope. Every mutation starts
// from a normalized parent and returns normalized variants — mutation never
// leaves normalize()'s admissible region, so a mutant is always a config
// run_config accepts as-is (the property test re-normalizes every emitted
// variant and asserts a fixed point).
//
// Two mutators emit FAMILIES rather than single variants:
//
//  * runway: K copies of the parent differing only in `steps`, ascending —
//    the family runner (fuzz/snapshot.hpp) grades them from one engine,
//    read-only at each milestone;
//  * crash_suffix: K copies sharing everything incl. the parent's crash
//    plan, each adding one late crash of its own — the only mutator that
//    adds crashes; its variants are graded cold.
//
// Mutators may consult the generation-start coverage map to steer toward
// unseen (axis, value) buckets — e.g. prefer the scheduler kind whose
// feature bucket is still clear. The map is fixed for the whole generation
// (the campaign only merges new coverage between generations), so guided
// choices are a pure function of (parent, rng stream, generation-start
// map) and stay reproducible at any --jobs width.
#pragma once

#include <string>
#include <vector>

#include "fuzz/config.hpp"
#include "fuzz/coverage.hpp"
#include "sim/rng.hpp"

namespace wfd::fuzz {

struct MutationPlan {
  std::string mutator;               ///< which mutator produced the plan
  std::vector<FuzzConfig> variants;  ///< normalized; never empty
  /// Variants are the same config with strictly ascending `steps`
  /// (milestone-gradeable from one engine).
  bool runway_family = false;
};

/// Mutate `parent` (normalized in here; callers may pass raw configs).
/// `max_family` caps family size (>= 1); `pool` is the target pool for the
/// target-hop mutator (empty = all legal targets). Deterministic given the
/// rng stream and the coverage map contents.
MutationPlan mutate(const FuzzConfig& parent, std::uint32_t max_family,
                    sim::Rng& rng, const CoverageMap& coverage,
                    const std::vector<TargetKind>& pool);

}  // namespace wfd::fuzz
