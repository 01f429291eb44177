// E17 — model-checker engine throughput. Measures exhaustive-exploration
// speed (reachable states/sec) across every checker model, thread count,
// crash configuration and state-space reduction level:
//
//   reduction  the Alg. 1/2 abstraction, one- and two-pair composition —
//              the two-pair spaces (~0.5M / ~8.3M states) are the real
//              workload; the one-pair rows mostly measure fixed overhead;
//   gkk        the Section 3 counterexample (graph-collecting, tiny);
//   ablation   the E9 single-instance extraction (graph-collecting, tiny).
//
// The reduced rows sweep Reduction::{kSymmetry, kPor, kSymmetryPor} on the
// two-pair spaces and report the orbit-reduction factor (full-space states
// per stored state) and bytes/state alongside the throughput; the verdict
// and — for POR — the reachable state set must be identical to the
// unreduced rows, which the shape checks enforce.
//
// This is the perf-trajectory anchor for the model-checker engine: run it
// before and after any engine change and diff the JSON rows (see
// BENCH_e17.json at the repo root for the recorded baselines). The
// headline rows are the pairs=2 reductions at 4 threads.
//
// Sweep scheduling goes through harness::run_campaign, one job at a time.
// Every check holds one seen-set, a bitmap over its model's codes: the
// reduction model codes a state by pair-table index — 20-24 bits for two
// pairs, 10-12 for one — so a reduction row's bitmap is at most 2 MiB
// ("seen_bytes"), whatever the row's state count.
//
// Usage: bench_e17_mc_throughput [--quick] [--threads N] [--json out.json]
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "harness/campaign.hpp"
#include "obs/metrics.hpp"
#include "mc/ablation_model.hpp"
#include "mc/gkk_model.hpp"
#include "mc/reduction_model.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace wfd;

struct Config {
  std::string model;  // "reduction", "gkk-fork", "gkk-lockout", "ablation"
  mc::BoxMode mode = mc::BoxMode::kExclusive;
  bool crash = false;
  bool accuracy = false;
  int pairs = 1;
  int threads = 1;
  mc::Reduction reduction = mc::Reduction::kNone;
};

// A configuration and the exact state counts its check must report:
// `states` for the full space, `stored` for the states kept at the row's
// reduction level (equal for kNone and kPor — POR preserves the state set;
// smaller for the symmetry quotients). Pinned by
// tests/test_model_checker.cpp's closed forms.
struct Shape {
  Config config;
  std::uint64_t states;
  std::uint64_t stored;
};

struct Row : Shape {
  mc::CheckResult result;
  double seconds = 0.0;
};

mc::CheckResult run_config(const Config& config,
                           const mc::CheckOptions& check) {
  if (config.model == "gkk-fork") {
    return mc::check_gkk(mc::GkkBoxSemantics::kForkBased, check);
  }
  if (config.model == "gkk-lockout") {
    return mc::check_gkk(mc::GkkBoxSemantics::kLockout, check);
  }
  if (config.model == "ablation") {
    return mc::check_ablation(check);
  }
  mc::McOptions options;
  options.mode = config.mode;
  options.allow_crash = config.crash;
  options.check_accuracy = config.accuracy;
  options.check_deadlock = true;
  options.pairs = config.pairs;
  return mc::check_reduction(options, check);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const bench::CliOptions cli =
      bench::parse_cli(static_cast<int>(args.size()), args.data(),
                       "bench_e17_mc_throughput");

  bench::banner("E17: model-checker throughput",
                "Exhaustive-exploration speed of every checker model across "
                "thread counts, crash configurations and reduction levels.");

  std::vector<Shape> shapes;
  const std::vector<int> thread_grid =
      quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const auto add_reduction = [&](mc::BoxMode mode, bool crash, bool accuracy,
                                 int pairs, std::uint64_t states) {
    for (const int threads : thread_grid) {
      shapes.push_back({{"reduction", mode, crash, accuracy, pairs, threads},
                        states, states});
    }
  };
  // One reduced row per level; `stored` is that level's exact stored-state
  // count (pinned by tests/test_model_checker.cpp's closed forms).
  const auto add_reduced = [&](mc::BoxMode mode, bool crash, bool accuracy,
                               int pairs, int threads, mc::Reduction level,
                               std::uint64_t full, std::uint64_t stored) {
    shapes.push_back(
        {{"reduction", mode, crash, accuracy, pairs, threads, level}, full,
         stored});
  };
  if (!quick) {
    add_reduction(mc::BoxMode::kExclusive, false, true, 1, 719);
    add_reduction(mc::BoxMode::kExclusive, true, true, 1, 2095);
    add_reduction(mc::BoxMode::kArbitrary, false, false, 1, 1320);
    add_reduction(mc::BoxMode::kArbitrary, true, false, 1, 2888);
  }
  add_reduction(mc::BoxMode::kExclusive, false, true, 2, 516961);
  // The reduction-level sweep on the headline space (~0.5M states).
  for (const int threads : {1, 4}) {
    add_reduced(mc::BoxMode::kExclusive, false, true, 2, threads,
                mc::Reduction::kSymmetry, 516961, 83436);
    add_reduced(mc::BoxMode::kExclusive, false, true, 2, threads,
                mc::Reduction::kPor, 516961, 516961);
    add_reduced(mc::BoxMode::kExclusive, false, true, 2, threads,
                mc::Reduction::kSymmetryPor, 516961, 166464);
  }
  if (!quick) {
    add_reduction(mc::BoxMode::kArbitrary, true, false, 2, 8340544);
    // The big (~8.3M-state) space, reduced, at the headline thread count.
    add_reduced(mc::BoxMode::kArbitrary, true, false, 2, 4,
                mc::Reduction::kSymmetry, 8340544, 1521640);
    add_reduced(mc::BoxMode::kArbitrary, true, false, 2, 4,
                mc::Reduction::kPor, 8340544, 8340544);
    add_reduced(mc::BoxMode::kArbitrary, true, false, 2, 4,
                mc::Reduction::kSymmetryPor, 8340544, 3041536);
    shapes.push_back({{"gkk-fork", {}, false, false, 1, 1}, 64, 64});
    shapes.push_back({{"gkk-lockout", {}, false, false, 1, 1}, 64, 64});
    shapes.push_back({{"ablation", {}, false, false, 1, 1}, 64, 64});
  }

  // One campaign job at a time (each job is internally parallel).
  const std::vector<Row> rows = harness::run_campaign(
      shapes,
      [](const Shape& shape) {
        const Config& config = shape.config;
        const auto start = std::chrono::steady_clock::now();
        const mc::CheckResult result = run_config(
            config,
            {.threads = config.threads, .reduction = config.reduction});
        return Row{shape, result,
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count()};
      },
      /*threads=*/1);

  sim::Table table({"model", "mode", "crash", "pairs", "reduction", "threads",
                    "states", "states_per_sec", "b_per_state", "verdict"},
                   12);
  table.print_header();
  bench::ShapeCheck shape_check;
  bench::JsonRows json;
  for (const Row& row : rows) {
    const Config& c = row.config;
    const mc::CheckResult& r = row.result;
    const double rate = row.seconds > 0.0 ? r.states / row.seconds : 0.0;
    const double bytes_per_state =
        r.states > 0 ? static_cast<double>(r.seen_bytes) / r.states : 0.0;
    const char* mode_name = c.model == "reduction"
                                ? (c.mode == mc::BoxMode::kExclusive
                                       ? "exclusive"
                                       : "arbitrary")
                                : "-";
    table.print_row(c.model, mode_name, bench::yesno(c.crash), c.pairs,
                    mc::reduction_name(r.reduction), c.threads, r.states,
                    static_cast<std::uint64_t>(rate), bytes_per_state,
                    mc::verdict_name(r.verdict));
    json.begin_row();
    json.field("experiment", "e17").field("model", c.model)
        .field("mode", mode_name).field("crash", c.crash)
        .field("pairs", c.pairs).field("threads", c.threads)
        .field("reduction", mc::reduction_name(r.reduction))
        .field("states", r.states).field("transitions", r.transitions)
        .field("depth", r.depth).field("seconds", row.seconds)
        .field("states_per_sec", static_cast<std::uint64_t>(rate))
        .field("seen_bytes", r.seen_bytes)
        .field("bytes_per_state", bytes_per_state)
        .field("graph_bytes", r.graph_bytes)
        .field("frontier_peak_bytes", r.frontier_peak_bytes)
        .field("verdict", mc::verdict_name(r.verdict));
    if (c.model == "reduction" && r.states > 0) {
      const double factor =
          static_cast<double>(row.states) / r.states;
      json.field("orbit_reduction_factor", factor);
      if (r.reduction == mc::Reduction::kSymmetry) {
        // Acceptance floor baked into the recorded rows: the comparator
        // (tools/bench_compare.py) hard-fails if a future engine stores
        // less than 3x fewer states than the full space on these rows.
        // (kSymmetry only: kSymmetryPor restricts the group to the
        // per-pair flips, whose factor is ~2-4x depending on the space.)
        json.field("min_orbit_reduction_factor", 3.0);
      }
    }
  }

  // Determinism: within one configuration, every thread count must report
  // the identical exploration. Reduced rows are further pinned against the
  // unreduced row of the same space: identical verdict always; identical
  // state set for POR (which prunes only interleavings).
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = i + 1; j < rows.size(); ++j) {
      const Config& a = rows[i].config;
      const Config& b = rows[j].config;
      if (a.model != b.model || a.mode != b.mode || a.crash != b.crash ||
          a.pairs != b.pairs) {
        continue;
      }
      const mc::CheckResult& ra = rows[i].result;
      const mc::CheckResult& rb = rows[j].result;
      shape_check.expect(ra.verdict == rb.verdict,
                         "reduction-independent verdict for " + a.model +
                             " pairs=" + std::to_string(a.pairs));
      if (a.reduction == b.reduction) {
        shape_check.expect(ra.states == rb.states &&
                               ra.transitions == rb.transitions &&
                               ra.depth == rb.depth,
                           "thread-count-independent exploration for " +
                               a.model + " pairs=" + std::to_string(a.pairs) +
                               " " + mc::reduction_name(ra.reduction));
      }
      const bool a_keeps_states = !mc::reduction_has_symmetry(ra.reduction);
      const bool b_keeps_states = !mc::reduction_has_symmetry(rb.reduction);
      if (a_keeps_states && b_keeps_states) {
        shape_check.expect(ra.states == rb.states,
                           "POR preserves the reachable state set for " +
                               a.model + " pairs=" + std::to_string(a.pairs));
      }
    }
  }
  // The expected verdicts (the throughput run is still a real check) and
  // the reduction factors.
  for (const Row& row : rows) {
    const bool lasso_expected =
        row.config.model == "gkk-fork" || row.config.model == "ablation";
    shape_check.expect(row.result.verdict == (lasso_expected
                                                  ? mc::Verdict::kViolation
                                                  : mc::Verdict::kOk),
                       row.config.model + ": unexpected verdict " +
                           mc::verdict_name(row.result.verdict));
    if (row.config.model == "reduction") {
      shape_check.expect(row.result.reduction == row.config.reduction,
                         "requested reduction level actually ran");
      shape_check.expect(row.result.states == row.stored,
                         "stored states match the recorded closed form for " +
                             std::string(mc::reduction_name(
                                 row.config.reduction)));
    }
    if (row.config.reduction == mc::Reduction::kSymmetry &&
        row.config.pairs == 2) {
      shape_check.expect(
          row.states >= 3 * row.result.states,
          "symmetry alone stores >= 3x fewer states (acceptance floor)");
    }
  }

  // Headline: the pairs=2 reduction at 4 threads should beat 1 thread on
  // real multi-core hardware. Single-core containers cannot show parallel
  // speedup, so there the check is reported but not enforced.
  double best_par = 0.0;
  double base_seq = 0.0;
  for (const Row& row : rows) {
    if (row.config.model != "reduction" || row.config.pairs != 2 ||
        row.config.mode != mc::BoxMode::kExclusive || row.seconds <= 0.0 ||
        row.config.reduction != mc::Reduction::kNone) {
      continue;
    }
    const double rate = row.result.states / row.seconds;
    if (row.config.threads == 1) base_seq = rate;
    if (row.config.threads == 4) best_par = rate;
  }
  if (base_seq > 0.0 && best_par > 0.0) {
    std::cout << "\npairs=2 exclusive reduction: " << std::uint64_t(base_seq)
              << " states/s at 1 thread, " << std::uint64_t(best_par)
              << " at 4 threads\n";
    if (std::thread::hardware_concurrency() >= 4) {
      shape_check.expect(best_par >= base_seq,
                         "4-thread exploration at least matches 1 thread");
    } else {
      std::cout << "(only " << std::thread::hardware_concurrency()
                << " hardware thread(s) — parallel speedup check skipped)\n";
    }
  }

  // E19: metrics-registry overhead on the headline config (pairs=2 exclusive
  // reduction at 4 threads). Instrumentation must not change the exploration,
  // so the counters double as a cross-check against the uninstrumented rows.
  {
    obs::Registry registry;
    mc::McOptions headline;
    headline.mode = mc::BoxMode::kExclusive;
    headline.check_accuracy = true;
    headline.check_deadlock = true;
    headline.pairs = 2;
    const auto start = std::chrono::steady_clock::now();
    const mc::CheckResult instrumented = mc::check_reduction(
        headline, {.threads = 4, .metrics = &registry});
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double rate = seconds > 0.0 ? instrumented.states / seconds : 0.0;
    const double overhead_pct =
        best_par > 0.0 && rate > 0.0 ? (best_par / rate - 1.0) * 100.0 : 0.0;
    std::cout << "metrics-on headline: " << std::uint64_t(rate)
              << " states/s at 4 threads (" << (overhead_pct >= 0 ? "+" : "")
              << overhead_pct << "% vs uninstrumented)\n";
    const obs::Snapshot snap = registry.snapshot();
    shape_check.expect(snap.counter_value("mc.states") == instrumented.states,
                       "mc.states counter equals the explored state count");
    shape_check.expect(
        snap.counter_value("mc.transitions") == instrumented.transitions,
        "mc.transitions counter equals the explored transition count");
    shape_check.expect(instrumented.verdict == mc::Verdict::kOk,
                       "instrumented headline run still verifies");
    json.begin_row();
    json.field("experiment", "e17").field("model", "reduction")
        .field("mode", "exclusive").field("crash", false)
        .field("pairs", 2).field("threads", 4)
        .field("metrics", true)
        .field("states", instrumented.states)
        .field("transitions", instrumented.transitions)
        .field("depth", instrumented.depth)
        .field("seconds", seconds)
        .field("states_per_sec", static_cast<std::uint64_t>(rate))
        .field("metrics_overhead_pct", overhead_pct)
        .field("verdict", mc::verdict_name(instrumented.verdict))
        .field_json("registry", snap.to_json());
  }

  if (!cli.json_path.empty()) {
    if (json.write_file(cli.json_path)) {
      std::cout << "\nresults written to " << cli.json_path << '\n';
    } else {
      shape_check.expect(false, "failed to write " + cli.json_path);
    }
  }

  std::cout << "\nEngine shape: pair-table index codes (20-24 bits for two "
               "pairs), a frontier\nof 32-bit codes in 4096-code blocks, one "
               "list per worker joined in worker\norder, one lock-free bitmap "
               "seen-set over every code (each successor inserted as\nit is "
               "emitted), symmetry/POR reduction levels with identical "
               "verdicts,\npersistent worker pool (one std::barrier phase per "
               "BFS level, its completion\nstep between levels), CSR "
               "reachable graph for analyze hooks; identical\nverdict and "
               "state count at every thread count (see BENCH_e17.json for "
               "the\nrecorded pre/post comparisons).\n";
  return shape_check.finish("E17");
}
