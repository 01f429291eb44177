// E23 — fuzz-campaign throughput: runway milestone grading vs cold replay.
// One honest back-to-back pre/post pair run in one process invocation:
//
//   runway   one dining config graded at K step milestones clustered near
//            the horizon. Pre replays every variant cold from t=0 and pays
//            K full engine runs; post is the family runner from
//            fuzz/snapshot.hpp, which advances ONE engine and grades
//            read-only at each milestone, so the whole family costs about
//            one run of the longest variant. This is the regime the >= 10x
//            acceptance floor binds on (min_speedup_factor in the emitted
//            rows; recorded full runs live in BENCH_e23.json at the repo
//            root).
//
// The milestone path is pinned bit-identical to cold replay by
// tests/test_fuzz_evolve.cpp over the conformance-vector corpus; this
// bench re-asserts identity on its own family before timing anything, so
// a speedup can never be bought with a wrong result.
//
// Usage: bench_e23_fuzz_throughput [--quick] [--seeds A[:B]] [--json FILE]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fuzz/config.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutators.hpp"
#include "fuzz/snapshot.hpp"

namespace {

using namespace wfd;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A normalized, crash-free dining base config sized to `steps`; the
/// family's variants are copies of it, so pre and post time exactly the
/// same schedule shapes.
fuzz::FuzzConfig base_config(std::uint64_t seed, std::uint64_t steps) {
  fuzz::FuzzConfig config =
      fuzz::normalize(fuzz::sample_config(seed, 0, {fuzz::TargetKind::kDining}));
  config.target = fuzz::TargetKind::kDining;
  config.n = 8;
  config.graph = fuzz::GraphKind::kRing;
  config.scheduler = fuzz::SchedulerKind::kRandom;
  config.crashes.clear();
  config.steps = steps;
  return fuzz::normalize(config);
}

/// Runway family: K copies of the base differing only in strictly
/// ascending `steps`, clustered near the horizon (the high-value milestone
/// shape: late grades over one long prefix).
fuzz::MutationPlan runway_plan(const fuzz::FuzzConfig& base,
                               std::uint32_t family) {
  fuzz::MutationPlan plan;
  plan.mutator = "bench_runway";
  plan.runway_family = true;
  for (std::uint32_t i = 0; i < family; ++i) {
    fuzz::FuzzConfig variant = base;
    variant.steps = base.steps - 64 * (family - 1 - i);
    plan.variants.push_back(fuzz::normalize(variant));
  }
  return plan;
}

struct FamilyTiming {
  double seconds = 0;
  std::vector<fuzz::FamilyResult> results;
  fuzz::SnapshotStats stats;
};

/// Grade `plan` through the family runner, or replay every variant cold
/// from t=0 (the pre side).
FamilyTiming time_family(const fuzz::MutationPlan& plan, bool cold) {
  FamilyTiming timing;
  const auto start = std::chrono::steady_clock::now();
  if (cold) {
    for (const fuzz::FuzzConfig& variant : plan.variants) {
      timing.results.push_back(fuzz::cold_family_run(variant));
    }
  } else {
    timing.results = fuzz::run_family(plan, &timing.stats);
  }
  timing.seconds = seconds_since(start);
  return timing;
}

/// Result + coverage identity across the pre/post pair — the contract that
/// makes the throughput comparison meaningful.
bool same_results(const std::vector<fuzz::FamilyResult>& a,
                  const std::vector<fuzz::FamilyResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].result.signature != b[i].result.signature ||
        a[i].result.failures.size() != b[i].result.failures.size() ||
        a[i].buckets != b[i].buckets) {
      return false;
    }
  }
  return true;
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
      parse_cli(static_cast<int>(args.size()), args.data(), "bench_e23");
  const std::uint64_t seed = options.seeds(0x23).front();

  banner("E23 — fuzz-campaign throughput: runway milestones vs cold replay",
         "Claim: runway milestone grading turns K graded runs into ~1 engine\n"
         "pass (>= 10x runs/s), bit-identically to cold replay.");

  ShapeCheck check;
  JsonRows rows;

  const std::uint64_t steps = quick ? 60'000 : 400'000;
  const std::uint32_t family = quick ? 16 : 24;
  // The runway floor is the E23 acceptance criterion; quick mode keeps a
  // real floor but leaves headroom for small-step noise.
  const double min_speedup = quick ? 5.0 : 10.0;
  const fuzz::MutationPlan plan = runway_plan(base_config(seed, steps), family);

  std::printf("%-14s %10s %8s %6s %10s %12s %10s\n", "section", "execution",
              "steps", "runs", "seconds", "runs/sec", "speedup");

  const FamilyTiming cold = time_family(plan, true);
  const FamilyTiming snap = time_family(plan, false);
  check.expect(cold.results.size() == plan.variants.size(),
               "runway: cold graded every variant");
  check.expect(same_results(cold.results, snap.results),
               "runway: snapshot results are bit-identical to cold replay");
  // The runner must actually have taken the fast path — a family-shape
  // regression that silently falls back cold shows up here, not as a
  // mysterious speedup miss.
  check.expect(snap.stats.milestone_runs + 1 == plan.variants.size(),
               "runway: snapshot path served the whole family");
  const double runs = static_cast<double>(plan.variants.size());
  const double cold_rps = runs / cold.seconds;
  const double snap_rps = runs / snap.seconds;
  const double speedup = snap_rps / cold_rps;
  check.expect(speedup >= min_speedup, "runway: snapshot runs/s >= " +
                                           std::to_string(min_speedup) +
                                           "x cold");
  for (const bool snapshot : {false, true}) {
    const FamilyTiming& timing = snapshot ? snap : cold;
    const double rps = runs / timing.seconds;
    std::printf("%-14s %10s %8llu %6zu %10.3f %12.1f %9.2fx\n", "runway",
                snapshot ? "snapshot" : "cold",
                static_cast<unsigned long long>(steps), plan.variants.size(),
                timing.seconds, rps, snapshot ? speedup : 1.0);
    rows.begin_row();
    rows.field("bench", "e23_fuzz_throughput")
        .field("section", "runway")
        .field("execution", snapshot ? "snapshot" : "cold")
        .field("seed", seed)
        .field("steps", steps)
        .field("variants", plan.variants.size())
        .field("runs", plan.variants.size())
        .field("seconds", timing.seconds)
        .field("runs_per_sec", rps);
    if (snapshot) {
      rows.field("speedup_factor", speedup)
          .field("min_speedup_factor", min_speedup);
    }
  }

  if (!options.json_path.empty()) {
    check.expect(rows.write_file(options.json_path),
                 "wrote JSON rows to " + options.json_path);
  }
  return check.finish("E23");
}
