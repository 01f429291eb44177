// Model-checker tests: exhaustive verification of the reduction's lemma
// structure over every interleaving of the abstract model, in all three
// regimes (mistake prefix, converged suffix, subject crash) — all driven
// through the unified mc::run_check / mc::CheckResult API — plus the
// parallel engine's determinism guarantee (identical state count, depth
// and verdict at every thread count).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "mc/ablation_model.hpp"
#include "mc/engine.hpp"
#include "mc/gkk_model.hpp"
#include "mc/reduction_model.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace wfd::mc {
namespace {

TEST(ModelChecker, ExclusiveSuffixAllLemmasHold) {
  McOptions options;
  options.mode = BoxMode::kExclusive;
  options.allow_crash = false;
  options.check_accuracy = true;
  options.check_deadlock = true;
  const CheckResult result = check_reduction(options);
  EXPECT_TRUE(result.ok()) << result.counterexample;
  EXPECT_GT(result.states, 100u);
}

TEST(ModelChecker, ArbitraryModeSafetyLemmasHold) {
  // During the mistake prefix anything can overlap; the safety lemmas
  // (2, 3, 4, 5, 8, 9) must hold regardless. Accuracy is a suffix
  // property, so it is not checked here.
  McOptions options;
  options.mode = BoxMode::kArbitrary;
  options.allow_crash = false;
  options.check_accuracy = false;
  options.check_deadlock = true;
  const CheckResult result = check_reduction(options);
  EXPECT_TRUE(result.ok()) << result.counterexample;
}

TEST(ModelChecker, CrashRegimeSafeAndComplete) {
  McOptions options;
  options.mode = BoxMode::kExclusive;
  options.allow_crash = true;
  options.check_accuracy = true;
  options.check_deadlock = true;
  const CheckResult result = check_reduction(options);
  EXPECT_TRUE(result.ok()) << result.counterexample;
}

TEST(ModelChecker, ArbitraryWithCrash) {
  McOptions options;
  options.mode = BoxMode::kArbitrary;
  options.allow_crash = true;
  options.check_accuracy = false;
  options.check_deadlock = true;
  const CheckResult result = check_reduction(options);
  EXPECT_TRUE(result.ok()) << result.counterexample;
}

TEST(ModelChecker, StateSpaceIsModest) {
  McOptions options;
  options.mode = BoxMode::kArbitrary;
  options.allow_crash = true;
  options.check_accuracy = false;
  const CheckResult result = check_reduction(options);
  EXPECT_TRUE(result.ok()) << result.counterexample;
  // The abstraction stays tractable — document the scale.
  EXPECT_LT(result.states, 1000000u);
  EXPECT_GT(result.transitions, result.states);
}

TEST(ModelChecker, BudgetExhaustionReported) {
  const CheckResult result = check_reduction({}, {.max_states = 10});
  EXPECT_FALSE(result.ok());
  // A budget stop is an aborted search, not a property violation — it must
  // be distinguishable from a real counterexample.
  EXPECT_EQ(result.verdict, Verdict::kBudgetExceeded);
  EXPECT_STREQ(verdict_name(result.verdict), "budget_exceeded");
  EXPECT_NE(result.counterexample.find("budget"), std::string::npos);
}

TEST(ModelChecker, DescribeStateIsReadable) {
  const std::string text = describe_state(0);
  EXPECT_NE(text.find("w0=thinking"), std::string::npos);
  EXPECT_NE(text.find("s1=thinking"), std::string::npos);
}

TEST(ModelChecker, ResultCarriesRunMetadata) {
  const CheckResult result = check_reduction({}, {.threads = 2});
  EXPECT_EQ(result.threads, 2);
  EXPECT_GE(result.wall_ms, 0.0);
  EXPECT_GT(result.depth, 0u);
  EXPECT_EQ(result.verdict, Verdict::kOk);
  // The reduction model collects no graph, so only the seen-set costs
  // memory; both figures are reported for capacity planning.
  EXPECT_GT(result.seen_bytes, 0u);
  EXPECT_EQ(result.graph_bytes, 0u);
}

// The reachable space of the two-pair composition is exactly the product
// of the per-pair spaces (the pairs share no variables), and its BFS
// diameter is the sum — a strong end-to-end check of both the composed
// model and the engine's level accounting.
TEST(ModelChecker, TwoPairCompositionIsProductOfOnePair) {
  McOptions one;  // exclusive suffix, no crash
  const CheckResult single = check_reduction(one, {.threads = 1});
  ASSERT_TRUE(single.ok()) << single.counterexample;

  McOptions two = one;
  two.pairs = 2;
  const CheckResult seq = check_reduction(two, {.threads = 1});
  EXPECT_TRUE(seq.ok()) << seq.counterexample;
  EXPECT_EQ(seq.states, single.states * single.states);
  EXPECT_EQ(seq.transitions, 2 * single.states * single.transitions);
  EXPECT_EQ(seq.depth, 2 * single.depth);

  const CheckResult par = check_reduction(two, {.threads = 4});
  EXPECT_EQ(par.states, seq.states);
  EXPECT_EQ(par.transitions, seq.transitions);
  EXPECT_EQ(par.depth, seq.depth);
  EXPECT_EQ(par.ok(), seq.ok());
}

// --- the parallel engine's determinism guarantee ---------------------------

TEST(ParallelEngine, DeterministicAcrossThreadCounts) {
  for (const BoxMode mode : {BoxMode::kExclusive, BoxMode::kArbitrary}) {
    for (const bool crash : {false, true}) {
      McOptions options;
      options.mode = mode;
      options.allow_crash = crash;
      options.check_accuracy = mode == BoxMode::kExclusive;
      options.check_deadlock = true;
      const CheckResult base = check_reduction(options, {.threads = 1});
      const int oversubscribed =
          2 * static_cast<int>(std::thread::hardware_concurrency() == 0
                                   ? 2u
                                   : std::thread::hardware_concurrency());
      for (const int threads : {2, 4, 8, oversubscribed}) {
        const CheckResult result =
            check_reduction(options, {.threads = threads});
        EXPECT_EQ(result.states, base.states)
            << "mode=" << static_cast<int>(mode) << " crash=" << crash
            << " threads=" << threads;
        EXPECT_EQ(result.transitions, base.transitions);
        EXPECT_EQ(result.depth, base.depth);
        EXPECT_EQ(result.ok(), base.ok());
        EXPECT_EQ(result.counterexample, base.counterexample);
        EXPECT_EQ(result.threads, threads);
      }
    }
  }
}

// A synthetic model with wide BFS levels: the monotone lattice paths of a
// K x K grid. Exercises run_check against a model defined entirely outside
// src/mc — the concept is the whole contract — with closed-form state,
// transition and depth counts.
struct GridModel {
  struct State {
    std::uint64_t bits = 0;
  };
  std::uint64_t side = 64;

  int code_bits() const {
    return static_cast<int>(std::bit_width(side * side - 1));  // 12 at 64
  }
  std::vector<State> initial_states() const { return {State{0}}; }

  template <class Emit>
  void successors(const State& st, Emit&& emit) const {
    const std::uint64_t x = st.bits % side;
    const std::uint64_t y = st.bits / side;
    if (x + 1 < side) emit(State{st.bits + 1}, kLabelNone);
    if (y + 1 < side) emit(State{st.bits + side}, kLabelNone);
  }

  std::string check_state(const State&) const { return {}; }
  std::string describe(const State& st) const {
    return "(" + std::to_string(st.bits % side) + "," +
           std::to_string(st.bits / side) + ")";
  }
};

static_assert(Model<GridModel>);

TEST(ParallelEngine, GenericGridModelHasClosedFormCounts) {
  const GridModel model{.side = 64};
  const CheckResult base = run_check(model, {.threads = 1});
  EXPECT_TRUE(base.ok());
  EXPECT_EQ(base.states, 64u * 64u);
  EXPECT_EQ(base.transitions, 2u * 64u * 63u);  // 2K(K-1) lattice edges
  EXPECT_EQ(base.depth, 126u);                  // 2(K-1) anti-diagonals
  for (const int threads : {2, 4, 8}) {
    const CheckResult result = run_check(model, {.threads = threads});
    EXPECT_EQ(result.states, base.states) << "threads=" << threads;
    EXPECT_EQ(result.transitions, base.transitions);
    EXPECT_EQ(result.depth, base.depth);
  }
}

TEST(ParallelEngine, BudgetStopIsDeterministicToo) {
  for (const int threads : {1, 2, 4}) {
    const CheckResult result =
        run_check(GridModel{.side = 64}, {.threads = threads,
                                          .max_states = 100});
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.verdict, Verdict::kBudgetExceeded) << "threads=" << threads;
    EXPECT_NE(result.counterexample.find("budget"), std::string::npos);
    // Complete levels only: 1 + 2 + ... + 13 = 91 states, the 14th level
    // would cross the 100-state budget.
    EXPECT_EQ(result.states, 91u) << "threads=" << threads;
  }
}

// A model that (wrongly) reaches a code wider than its declared 2 bits:
// s0 -> s1 -> s2 -> s3 -> code 4, or starts at code 4. The code has no bit
// in the seen-set, so the engine must stop with a model error that names
// the offending predecessor instead of inserting it.
struct OverWidthModel {
  struct State {
    std::uint64_t bits = 0;
  };
  bool over_width_initial = false;
  int width = 2;

  int code_bits() const { return width; }
  std::vector<State> initial_states() const {
    return {State{over_width_initial ? 4u : 0u}};
  }
  template <class Emit>
  void successors(const State& st, Emit&& emit) const {
    if (st.bits <= 3) emit(State{st.bits + 1}, kLabelNone);
  }
  std::string check_state(const State&) const { return {}; }
  std::string describe(const State& st) const {
    return "s" + std::to_string(st.bits);
  }
};

static_assert(Model<OverWidthModel>);

TEST(ParallelEngine, OverWidthSuccessorIsRejected) {
  for (const int threads : {1, 4}) {
    const CheckResult result =
        run_check(OverWidthModel{}, {.threads = threads});
    EXPECT_EQ(result.verdict, Verdict::kViolation) << "threads=" << threads;
    EXPECT_EQ(result.counterexample,
              "model error: successor code exceeds the declared code_bits "
              "width | from s3")
        << "threads=" << threads;
    EXPECT_EQ(result.states, 4u) << "s0..s3 were expanded";
  }
}

TEST(ParallelEngine, OverWidthInitialStateIsRejected) {
  for (const int threads : {1, 4}) {
    const CheckResult result = run_check(
        OverWidthModel{.over_width_initial = true}, {.threads = threads});
    EXPECT_EQ(result.verdict, Verdict::kViolation) << "threads=" << threads;
    EXPECT_EQ(result.counterexample,
              "model error: initial state code exceeds the declared "
              "code_bits width");
    EXPECT_EQ(result.states, 0u);
  }
}

// A declared width outside [1, kMaxCodeBits] is refused before anything is
// sized from it (the seen-set alone would take 2^width bits), in every
// build type: these run with NDEBUG too.
TEST(ParallelEngine, CodeBitsOutsideTheRangeAreRefused) {
  for (const int width : {0, kMaxCodeBits + 1}) {
    const CheckResult result =
        run_check(OverWidthModel{.width = width}, {.threads = 2});
    EXPECT_EQ(result.verdict, Verdict::kViolation) << "width=" << width;
    EXPECT_EQ(result.counterexample,
              "model error: code_bits() is " + std::to_string(width) +
                  ", outside [1, " + std::to_string(kMaxCodeBits) + "]");
    EXPECT_EQ(result.states, 0u);
    EXPECT_EQ(result.seen_bytes, 0u) << "no seen-set was allocated";
  }
  // Declared wide enough for code 4, the same model explores s0..s4.
  EXPECT_TRUE(run_check(OverWidthModel{.width = 3}, {.threads = 1}).ok());
}

// --- oversubscription: more workers than the hardware has ------------------

TEST(EngineScale, OversubscribedDeterminism) {
  McOptions options;  // the pairs=2 composition: the largest tier-1 space
  options.mode = BoxMode::kExclusive;
  options.allow_crash = false;
  options.check_accuracy = true;
  options.check_deadlock = true;
  options.pairs = 2;
  const CheckResult base = check_reduction(options, {.threads = 1});
  ASSERT_TRUE(base.ok()) << base.counterexample;
  const unsigned hw = std::thread::hardware_concurrency();
  const int oversubscribed = 2 * static_cast<int>(hw == 0 ? 2u : hw);
  const CheckResult result =
      check_reduction(options, {.threads = oversubscribed});
  EXPECT_EQ(result.states, base.states) << "threads=" << oversubscribed;
  EXPECT_EQ(result.transitions, base.transitions);
  EXPECT_EQ(result.depth, base.depth);
  EXPECT_EQ(result.verdict, base.verdict);
  EXPECT_EQ(result.counterexample, base.counterexample);
}

// --- the GKK liveness counterexample, mechanically -------------------------

TEST(GkkModel, ForkBasedBoxAdmitsEternalWrongfulSuspicion) {
  const CheckResult result = check_gkk(GkkBoxSemantics::kForkBased);
  EXPECT_FALSE(result.ok())
      << "the Section 3 counterexample must exist as a lasso";
  EXPECT_FALSE(result.counterexample.empty());
  EXPECT_NE(result.counterexample.find("suspects correct q"),
            std::string::npos);
}

TEST(GkkModel, LockoutBoxAdmitsNoSuchLasso) {
  const CheckResult result = check_gkk(GkkBoxSemantics::kLockout);
  EXPECT_TRUE(result.ok())
      << "with the never-exiting eater holding the lock, the witness is "
         "locked out: no infinite wrongful-suspicion run — cycle: "
      << result.counterexample;
}

TEST(AblationModel, SingleInstanceAdmitsEternalWrongfulSuspicion) {
  // Even against a wait-free exclusive box: there is a legal cycle in
  // which the subject keeps completing meals AND the witness keeps
  // judging without a ping — the mechanical counterpart of E9, and the
  // reason the paper's construction needs two instances + the hand-off.
  const CheckResult result = check_ablation();
  EXPECT_FALSE(result.ok()) << "expected the E9 lasso";
  EXPECT_NE(result.counterexample.find("wrongfully suspects"),
            std::string::npos);
  EXPECT_LT(result.states, 200u);
}

TEST(GkkModel, StateSpacesAreTiny) {
  const CheckResult fork_based = check_gkk(GkkBoxSemantics::kForkBased);
  const CheckResult lockout = check_gkk(GkkBoxSemantics::kLockout);
  EXPECT_LT(fork_based.states, 100u);
  EXPECT_LT(lockout.states, 100u);
  EXPECT_GT(fork_based.transitions, fork_based.states);
  // Analyzable models collect the reachable graph; its CSR footprint is
  // reported alongside the seen-set's.
  EXPECT_GT(fork_based.graph_bytes, 0u);
  EXPECT_GT(fork_based.seen_bytes, 0u);
}

// Regression: the engine used to fill wall_ms / seen_bytes / graph_bytes
// differently per exit path — in particular an early stop (violation or
// budget) on an analyzable model reported graph_bytes = 0 even though the
// per-worker edge logs were sitting in memory. Every verdict kind must now
// come back with all three figures populated.
TEST(ModelChecker, ResultMetadataPopulatedOnEveryVerdict) {
  // kOk: clean cover of an analyzable model (lockout box has no lasso).
  const CheckResult ok = check_gkk(GkkBoxSemantics::kLockout);
  ASSERT_EQ(ok.verdict, Verdict::kOk) << ok.counterexample;
  EXPECT_GT(ok.wall_ms, 0.0);
  EXPECT_GT(ok.seen_bytes, 0u);
  EXPECT_GT(ok.graph_bytes, 0u);

  // kViolation: the fork-based lasso found by the analyze hook.
  const CheckResult violation = check_gkk(GkkBoxSemantics::kForkBased);
  ASSERT_EQ(violation.verdict, Verdict::kViolation);
  EXPECT_GT(violation.wall_ms, 0.0);
  EXPECT_GT(violation.seen_bytes, 0u);
  EXPECT_GT(violation.graph_bytes, 0u);

  // kBudgetExceeded: the stop fires after at least one level expanded, so
  // edge logs were collected — their footprint must be reported, not a
  // silent zero.
  const CheckResult budget =
      check_gkk(GkkBoxSemantics::kForkBased, {.max_states = 4});
  ASSERT_EQ(budget.verdict, Verdict::kBudgetExceeded);
  EXPECT_GT(budget.wall_ms, 0.0);
  EXPECT_GT(budget.seen_bytes, 0u);
  EXPECT_GT(budget.graph_bytes, 0u);
}

// --- the CSR reachable-graph view, directly --------------------------------

TEST(ReachViewTest, CsrLookupAndIteration) {
  struct S {
    std::uint32_t bits = 0;
  };
  // Three nodes (keys 5, 9, 12); node 5 -> {9, 12}, node 9 -> {12}, node 12
  // has no successors.
  const ReachView<S> view({5, 9, 12}, {0, 2, 3, 3},
                          {S{9}, S{12}, S{12}},
                          {kLabelNone, kLabelWrongfulSuspicion, kLabelNone});
  ASSERT_EQ(view.node_count(), 3u);
  EXPECT_EQ(view.key(0), 5u);
  EXPECT_EQ(view.key(2), 12u);
  EXPECT_EQ(view.find(9), 1u);
  EXPECT_EQ(view.find(7), ReachView<S>::npos);
  ASSERT_EQ(view.out_degree(0), 2u);
  EXPECT_EQ(view.edge_to(0, 1).bits, 12u);
  EXPECT_EQ(view.edge_label(0, 1), kLabelWrongfulSuspicion);
  EXPECT_EQ(view.out_degree(2), 0u);
  EXPECT_GT(view.bytes(), 0u);
}

// --- state-space reductions ------------------------------------------------

// Every 26-bit pair block reachable from the initial one-pair state, by a
// plain BFS over the model API (independent of the engine under test).
std::vector<std::uint64_t> reachable_pair_blocks(const McOptions& options) {
  McOptions one = options;
  one.pairs = 1;
  const ReductionModel model(one);
  std::set<std::uint64_t> reached;
  std::vector<ReductionModel::State> frontier = model.initial_states();
  for (const auto& s : frontier) reached.insert(model.block_of(s, 0));
  while (!frontier.empty()) {
    std::vector<ReductionModel::State> next;
    for (const auto& s : frontier) {
      model.successors(s, [&](const ReductionModel::State& to, std::uint8_t) {
        if (reached.insert(model.block_of(to, 0)).second) next.push_back(to);
      });
    }
    frontier = std::move(next);
  }
  return {reached.begin(), reached.end()};
}

// The soundness of the symmetry quotient rests on the per-pair instance
// flip being an automorphism of the pair transition relation. Check it
// mechanically over 26-bit blocks: for every reachable one-pair block b, in
// every regime, flip(successors(b)) == successors(flip(b)) as labelled edge
// sets — and the table's precomputed flip index names flip(b).
TEST(ReductionLevels, FlipIsAutomorphismOfPairSuccessors) {
  for (const BoxMode mode : {BoxMode::kExclusive, BoxMode::kArbitrary}) {
    for (const bool crash : {false, true}) {
      McOptions options;
      options.mode = mode;
      options.allow_crash = crash;
      options.check_accuracy = mode == BoxMode::kExclusive;
      const ReductionModel model(options);
      const PairTable& table = model.pair_table();
      auto edge_set = [&](std::uint64_t block) {
        std::set<std::pair<std::uint64_t, std::uint8_t>> out;
        model.successors(model.state_of({block}),
                         [&](const ReductionModel::State& to,
                             std::uint8_t label) {
                           out.emplace(model.block_of(to, 0), label);
                         });
        return out;
      };
      for (const std::uint64_t block : reachable_pair_blocks(options)) {
        const std::uint32_t index = table.find(block);
        ASSERT_NE(index, PairTable::kMissing) << describe_state(block);
        EXPECT_EQ(table.block(table.flip(index)), flip_pair_bits(block))
            << describe_state(block);
        std::set<std::pair<std::uint64_t, std::uint8_t>> mapped;
        for (const auto& [to, label] : edge_set(block)) {
          mapped.emplace(flip_pair_bits(to), label);
        }
        EXPECT_EQ(mapped, edge_set(flip_pair_bits(block)))
            << "mode=" << static_cast<int>(mode) << " crash=" << crash
            << " state=" << describe_state(block);
      }
    }
  }
}

// The engine only applies the reduction levels a model's hooks and
// soundness gates support; everything else downgrades predictably.
TEST(ReductionLevels, UnsupportedLevelsDowngrade) {
  // Lasso searches read transitions, which POR prunes: analyzable models
  // never get POR (and GKK/ablation's renaming group is the identity, so
  // their symmetry quotient is a no-op but still "runs").
  const GkkModel gkk(GkkBoxSemantics::kLockout);
  EXPECT_EQ(applied_reduction(gkk, Reduction::kPor), Reduction::kNone);
  EXPECT_EQ(applied_reduction(gkk, Reduction::kSymmetryPor),
            Reduction::kSymmetry);
  // One pair = one POR component: nothing to reduce.
  const ReductionModel one_pair{McOptions{}};
  EXPECT_EQ(applied_reduction(one_pair, Reduction::kPor), Reduction::kNone);
  EXPECT_EQ(applied_reduction(one_pair, Reduction::kSymmetryPor),
            Reduction::kSymmetry);
  McOptions two;
  two.pairs = 2;
  const ReductionModel two_pair(two);
  EXPECT_EQ(applied_reduction(two_pair, Reduction::kSymmetryPor),
            Reduction::kSymmetryPor);
  // The result reports what actually ran.
  const CheckResult r = check_reduction({}, {.reduction = Reduction::kPor});
  EXPECT_EQ(r.reduction, Reduction::kNone);
}

// Every reduction level must return the identical verdict, and in every
// clean mode x crash x accuracy regime the two-pair counts obey closed
// forms in the one-pair state count R, transition count E, depth d1 and
// symmetry count C (the pairs share no variables):
//  * kNone is the product space: R^2 states, 2*R*E transitions, depth 2*d1;
//  * kSymmetry stores one state per unordered pair of flip orbits,
//    C*(C+1)/2 (>= 3x fewer than kNone — the acceptance floor);
//  * kPor preserves the reachable STATE SET exactly and prunes commuting
//    interleavings: transitions drop from 2*R*E to (R+1)*E;
//  * kSymmetryPor composes flips with the component ordering: exactly C^2.
// The two arbitrary-mode regimes that check accuracy stop on Theorem 2 at
// depth 20 at every level; their counts are pinned.
TEST(ReductionLevels, TwoPairClosedFormsAtEveryLevel) {
  constexpr Reduction kLevels[] = {Reduction::kNone, Reduction::kSymmetry,
                                   Reduction::kPor, Reduction::kSymmetryPor};
  struct Pin {
    std::uint64_t states, transitions;
  };
  for (const BoxMode mode : {BoxMode::kExclusive, BoxMode::kArbitrary}) {
    for (const bool crash : {false, true}) {
      for (const bool accuracy : {false, true}) {
        McOptions one;
        one.mode = mode;
        one.allow_crash = crash;
        one.check_accuracy = accuracy;
        McOptions two = one;
        two.pairs = 2;
        const std::string regime =
            std::string(mode == BoxMode::kExclusive ? "excl" : "arb") +
            (crash ? "_crash" : "") + (accuracy ? " accuracy" : "");
        std::vector<CheckResult> at;
        for (const Reduction level : kLevels) {
          at.push_back(
              check_reduction(two, {.threads = 4, .reduction = level}));
          EXPECT_EQ(at.back().reduction, level) << regime;
        }

        if (mode == BoxMode::kArbitrary && accuracy) {
          const Pin pins[2][4] = {
              {{14337, 60934}, {7159, 30414}, {14337, 31168}, {14245, 30930}},
              {{52339, 234370},
               {26143, 116981},
               {52339, 118636},
               {52147, 118061}}};
          for (std::size_t i = 0; i < at.size(); ++i) {
            const CheckResult& r = at[i];
            const char* level = reduction_name(kLevels[i]);
            EXPECT_EQ(r.verdict, Verdict::kViolation) << regime << " " << level;
            EXPECT_EQ(r.counterexample.rfind("Theorem 2 violated", 0), 0u)
                << regime << " " << level << ": " << r.counterexample;
            EXPECT_EQ(r.depth, 20u) << regime << " " << level;
            EXPECT_EQ(r.states, pins[crash][i].states)
                << regime << " " << level;
            EXPECT_EQ(r.transitions, pins[crash][i].transitions)
                << regime << " " << level;
          }
          continue;
        }

        const CheckResult single = check_reduction(one, {.threads = 2});
        ASSERT_TRUE(single.ok()) << regime << ": " << single.counterexample;
        const CheckResult single_sym = check_reduction(
            one, {.threads = 2, .reduction = Reduction::kSymmetry});
        ASSERT_TRUE(single_sym.ok()) << single_sym.counterexample;
        EXPECT_EQ(single_sym.reduction, Reduction::kSymmetry);
        const std::uint64_t r = single.states;
        const std::uint64_t e = single.transitions;
        const std::uint64_t c = single_sym.states;
        EXPECT_EQ(c, mode == BoxMode::kExclusive ? (crash ? 1192u : 408u)
                                                 : (crash ? 1744u : 800u))
            << regime;
        for (const CheckResult& result : at) {
          EXPECT_TRUE(result.ok()) << regime << " "
                                   << reduction_name(result.reduction) << ": "
                                   << result.counterexample;
        }
        const CheckResult& none = at[0];
        EXPECT_EQ(none.states, r * r) << regime;
        EXPECT_EQ(none.transitions, 2 * r * e) << regime;
        EXPECT_EQ(none.depth, 2 * single.depth) << regime;

        const CheckResult& sym = at[1];
        EXPECT_EQ(sym.states, c * (c + 1) / 2) << regime;
        EXPECT_GE(none.states, 3 * sym.states) << "acceptance floor: >= 3x";

        const CheckResult& por = at[2];
        EXPECT_EQ(por.states, none.states) << "POR must preserve the state set";
        EXPECT_EQ(por.transitions, (r + 1) * e) << regime;

        EXPECT_EQ(at[3].states, c * c) << regime;
      }
    }
  }
}

// The determinism guarantee holds at every reduction level: identical
// states, transitions, depth and verdict at every thread count.
TEST(ReductionLevels, DeterministicAcrossThreadCountsAtEveryLevel) {
  McOptions two;
  two.pairs = 2;
  const unsigned hw = std::thread::hardware_concurrency();
  const int oversubscribed = 2 * static_cast<int>(hw == 0 ? 2u : hw);
  for (const Reduction level :
       {Reduction::kNone, Reduction::kSymmetry, Reduction::kPor,
        Reduction::kSymmetryPor}) {
    const CheckResult base =
        check_reduction(two, {.threads = 1, .reduction = level});
    ASSERT_TRUE(base.ok()) << base.counterexample;
    for (const int threads : {2, 8, oversubscribed}) {
      const CheckResult result =
          check_reduction(two, {.threads = threads, .reduction = level});
      EXPECT_EQ(result.states, base.states)
          << reduction_name(level) << " threads=" << threads;
      EXPECT_EQ(result.transitions, base.transitions);
      EXPECT_EQ(result.depth, base.depth);
      EXPECT_EQ(result.verdict, base.verdict);
      EXPECT_EQ(result.counterexample, base.counterexample);
      EXPECT_EQ(result.reduction, base.reduction);
    }
  }
}

// A model small enough to count orbits by hand: three identical counters
// 0..2, any counter below 2 may increment. Full space 3^3 = 27 states; the
// canonicalization sorts the digits (the S3 renaming group), so the
// quotient is the multisets of size 3 over {0,1,2}:
//   {000,100,110,111,200,210,211,220,221,222} — 10 orbits.
// Reduced transitions = sum of full out-degrees over the 10 representatives
// (number of digits < 2): 3+3+3+3+2+2+2+1+1+0 = 20; unreduced = 54 (each of
// the 27 states contributes its count of digits < 2, and the digits are
// i.i.d. uniform: 27 * 3 * 2/3). Depth 6 either way (six increments to 222).
struct CounterTripleModel {
  struct State {
    std::uint64_t bits = 0;  // three 2-bit digits
  };

  static std::uint64_t digit(std::uint64_t bits, int i) {
    return (bits >> (2 * i)) & 3;
  }

  std::vector<State> initial_states() const { return {State{0}}; }
  template <class Emit>
  void successors(const State& st, Emit&& emit) const {
    for (int i = 0; i < 3; ++i) {
      if (digit(st.bits, i) < 2) {
        emit(State{st.bits + (1ull << (2 * i))}, kLabelNone);
      }
    }
  }
  std::string check_state(const State&) const { return {}; }
  std::string describe(const State& st) const {
    return std::to_string(digit(st.bits, 2)) + std::to_string(digit(st.bits, 1)) +
           std::to_string(digit(st.bits, 0));
  }
  int code_bits() const { return 6; }
  State canonical(const State& st, Reduction) const {
    // Least packed key in the orbit: descending digits toward bit 0.
    std::uint64_t d[3] = {digit(st.bits, 0), digit(st.bits, 1),
                          digit(st.bits, 2)};
    std::sort(d, d + 3, std::greater<>());
    return State{d[0] | (d[1] << 2) | (d[2] << 4)};
  }
};

static_assert(Model<CounterTripleModel>);
static_assert(SymmetricModel<CounterTripleModel>);

TEST(ReductionLevels, HandCountedOrbitsOnTinyModel) {
  const CounterTripleModel model;
  const CheckResult full = run_check(model, {.threads = 1});
  EXPECT_TRUE(full.ok());
  EXPECT_EQ(full.states, 27u);
  EXPECT_EQ(full.transitions, 54u);
  EXPECT_EQ(full.depth, 6u);
  for (const int threads : {1, 4}) {
    const CheckResult reduced = run_check(
        model, {.threads = threads, .reduction = Reduction::kSymmetry});
    EXPECT_TRUE(reduced.ok());
    EXPECT_EQ(reduced.reduction, Reduction::kSymmetry);
    EXPECT_EQ(reduced.states, 10u) << "threads=" << threads;
    EXPECT_EQ(reduced.transitions, 20u);
    EXPECT_EQ(reduced.depth, 6u);
  }
}

// --- the reduction model's own checks ---------------------------------------

// The mistake prefix does not satisfy Theorem 2's suffix step, so checking
// accuracy under kArbitrary must fail — the one regime in which the
// reduction model's own check_state fires. Pinned counts for pairs 1/2 x
// crash off/on; the counterexample is thread-count independent.
TEST(ModelChecker, ArbitraryAccuracyReportsTheoremTwoAtDepth20) {
  struct Pin {
    int pairs;
    bool crash;
    std::uint64_t states, transitions;
  };
  for (const Pin& pin : {Pin{1, false, 313, 701}, Pin{1, true, 644, 1451},
                         Pin{2, false, 14337, 60934},
                         Pin{2, true, 52339, 234370}}) {
    McOptions options;
    options.mode = BoxMode::kArbitrary;
    options.allow_crash = pin.crash;
    options.check_accuracy = true;
    options.check_deadlock = !pin.crash;
    options.pairs = pin.pairs;
    const CheckResult one = check_reduction(options, {.threads = 1});
    EXPECT_EQ(one.verdict, Verdict::kViolation)
        << "pairs=" << pin.pairs << " crash=" << pin.crash;
    EXPECT_EQ(one.counterexample.rfind("Theorem 2 violated", 0), 0u)
        << one.counterexample;
    EXPECT_EQ(one.depth, 20u);
    EXPECT_EQ(one.states, pin.states);
    EXPECT_EQ(one.transitions, pin.transitions);
    const CheckResult four = check_reduction(options, {.threads = 4});
    EXPECT_EQ(four.verdict, one.verdict);
    EXPECT_EQ(four.counterexample, one.counterexample);
    EXPECT_EQ(four.states, one.states);
    EXPECT_EQ(four.transitions, one.transitions);
    EXPECT_EQ(four.depth, one.depth);
  }
}

// Deadlock and Theorem 1 are facts of a block's own successors, computed by
// pair_bits_facts when the PairTable is built and reported by
// check_pair_blocks, check_state's slow path. No real block deadlocks or
// breaks Theorem 1, so both are driven here with fabricated successor sets:
// none of these inputs is a reachable product state's real row, so each
// property is asserted on the two functions rather than through a state.
TEST(ModelChecker, PairFactsReportTheoremOneAndDeadlock) {
  McOptions options;
  options.mode = BoxMode::kExclusive;
  options.allow_crash = true;
  options.check_deadlock = true;
  // A crashed block with both ping channels drained and no haveping set,
  // and any block with a haveping set.
  std::uint64_t drained = 0, pinged = 0;
  bool have_drained = false, have_pinged = false;
  for (const std::uint64_t block : reachable_pair_blocks(options)) {
    const std::string text = describe_state(block);
    if (!have_drained && text.find("CRASHED") != std::string::npos &&
        text.find("chans=p00") != std::string::npos &&
        text.find("haveping=00") != std::string::npos) {
      drained = block;
      have_drained = true;
    }
    if (!have_pinged && text.find("haveping=00") == std::string::npos) {
      pinged = block;
      have_pinged = true;
    }
  }
  ASSERT_TRUE(have_drained && have_pinged);
  using Blocks = std::vector<std::uint64_t>;
  // The facts of `block` given `successors`, then the report for one pair
  // per entry of `blocks` with those facts.
  const auto facts = [](const McOptions& o, std::uint64_t block,
                        const Blocks& successors) {
    return pair_bits_facts(o, block, successors);
  };
  const auto report = [](const McOptions& o, const Blocks& blocks,
                         const std::vector<std::uint8_t>& pair_facts) {
    return check_pair_blocks(o, blocks, pair_facts);
  };

  EXPECT_TRUE(facts(options, drained, {pinged}) & PairTable::kTheorem1);
  EXPECT_EQ(report(options, {drained}, {facts(options, drained, {pinged})})
                .rfind("Theorem 1 violated", 0),
            0u);
  EXPECT_EQ(report(options, {drained}, {facts(options, drained, {drained})}),
            "");
  EXPECT_TRUE(facts(options, drained, {}) & PairTable::kStuck);
  EXPECT_EQ(report(options, {drained}, {facts(options, drained, {})}), "")
      << "a crashed state may have no successor";

  // Two pairs: only the crashed, drained pair is watched, and the report
  // names it. A pair with no move among the successors gets an empty set.
  McOptions two_pairs = options;
  two_pairs.pairs = 2;
  const ReductionModel two(two_pairs);
  const std::uint64_t live = two.block_of(two.initial_states().front(), 0);
  const std::string named =
      report(two_pairs, {live, drained},
             {facts(two_pairs, live, {}), facts(two_pairs, drained, {pinged})});
  EXPECT_EQ(named.rfind("Theorem 1 violated", 0), 0u) << named;
  EXPECT_NE(named.find("| pair 1:"), std::string::npos) << named;
  EXPECT_NE(named.find(describe_state(drained)), std::string::npos) << named;
  EXPECT_EQ(report(two_pairs, {drained, live},
                   {facts(two_pairs, drained, {}),
                    facts(two_pairs, live, {pinged})}),
            "")
      << "a live pair may set haveping";

  McOptions live_options;  // exclusive, no crash, deadlock checked
  const ReductionModel live_model(live_options);
  const std::uint64_t initial =
      live_model.block_of(live_model.initial_states().front(), 0);
  const std::string deadlock =
      report(live_options, {initial}, {facts(live_options, initial, {})});
  EXPECT_EQ(deadlock.rfind("deadlock: ", 0), 0u) << deadlock;
  // With two pairs the report renders the product state as describe does.
  McOptions live_two = live_options;
  live_two.pairs = 2;
  const ReductionModel live_two_model(live_two);
  const std::uint8_t stuck = facts(live_two, initial, {});
  const ReductionModel::State both_initial =
      live_two_model.initial_states().front();
  EXPECT_EQ(report(live_two, {initial, initial}, {stuck, stuck}),
            "deadlock: " + live_two_model.describe(both_initial));
  EXPECT_EQ(report(live_two, {initial, initial},
                   {stuck, facts(live_two, initial, {pinged})}),
            "")
      << "a pair with a move keeps the state live";
}

// --- the per-pair transition table ------------------------------------------

// Theorem 1 read off describe_state's text, apart from pair_bits_facts: the
// block is crashed with both ping channels empty ("chans=p00"), and some
// successor shows haveping 1 where the block shows 0.
bool breaks_theorem_one(std::uint64_t block,
                        const std::vector<std::uint64_t>& successors) {
  const std::string text = describe_state(block);
  if (text.find(" CRASHED") == std::string::npos ||
      text.find("chans=p00") == std::string::npos) {
    return false;
  }
  const auto haveping = [](const std::string& t) {
    return t.substr(t.find("haveping=") + 9, 2);
  };
  const std::string mine = haveping(text);
  for (const std::uint64_t next : successors) {
    const std::string theirs = haveping(describe_state(next));
    for (int i = 0; i < 2; ++i) {
      if (mine[i] == '0' && theirs[i] == '1') return true;
    }
  }
  return false;
}

// Every cached block, in all eight mode x crash x accuracy regimes, carries
// exactly the direct computation: its successors (mapped from indices back
// to blocks) in emission order, its clean bit, and its two expansion facts
// (stuck iff the row is empty; Theorem 1 as breaks_theorem_one reads it).
// Index 0 is the initial block, the flip index is an involution, and the
// table is closed under successors, so a state never codes a block outside
// it.
TEST(PairTable, CachedBlocksMatchDirectComputation) {
  for (const BoxMode mode : {BoxMode::kExclusive, BoxMode::kArbitrary}) {
    for (const bool crash : {false, true}) {
      for (const bool accuracy : {false, true}) {
        McOptions options;
        options.mode = mode;
        options.allow_crash = crash;
        options.check_accuracy = accuracy;
        const ReductionModel model(options);
        const PairTable& table = model.pair_table();
        EXPECT_EQ(describe_state(table.block(0)),
                  "w0=thinking w1=thinking s0=thinking s1=thinking switch=0 "
                  "trigger=0 haveping=00 ping=11 chans=p00/a00");
        EXPECT_EQ(model.block_of(model.initial_states().front(), 0),
                  table.block(0));
        EXPECT_EQ((table.size() - 1) >> table.index_bits(), 0u);
        EXPECT_EQ((table.size() - 1) >> (table.index_bits() - 1), 1u)
            << "index_bits is the narrowest width";
        std::size_t unclean = 0, stuck = 0, theorem_one = 0;
        for (std::uint32_t i = 0; i < table.size(); ++i) {
          const std::uint64_t block = table.block(i);
          ASSERT_EQ(table.find(block), i);
          ASSERT_EQ(table.flip(table.flip(i)), i) << describe_state(block);
          std::vector<std::uint64_t> cached;
          for (const std::uint32_t next : table.successors(i)) {
            ASSERT_LT(next, table.size());
            cached.push_back(table.block(next));
          }
          const std::vector<std::uint64_t> direct =
              pair_successor_bits(options, block);
          ASSERT_EQ(cached, direct)
              << "mode=" << static_cast<int>(mode) << " crash=" << crash
              << " accuracy=" << accuracy << " " << describe_state(block);
          const std::uint8_t facts = table.facts(i);
          const bool clean = (facts & PairTable::kClean) != 0;
          ASSERT_EQ(clean, pair_bits_clean(options, block))
              << describe_state(block);
          ASSERT_EQ(facts, pair_bits_facts(options, block, direct))
              << describe_state(block);
          ASSERT_EQ((facts & PairTable::kStuck) != 0, direct.empty())
              << describe_state(block);
          ASSERT_EQ((facts & PairTable::kTheorem1) != 0,
                    breaks_theorem_one(block, direct))
              << describe_state(block);
          unclean += clean ? 0 : 1;
          stuck += (facts & PairTable::kStuck) ? 1 : 0;
          theorem_one += (facts & PairTable::kTheorem1) ? 1 : 0;
        }
        // Theorem 2 fails only where the mistake prefix is checked for it;
        // no block deadlocks or breaks Theorem 1 in any regime.
        EXPECT_EQ(unclean != 0, accuracy && mode == BoxMode::kArbitrary);
        EXPECT_EQ(stuck, 0u);
        EXPECT_EQ(theorem_one, 0u);
      }
    }
  }
}

// --- the frontier's expansion order ---------------------------------------

// A heap-numbered complete binary tree: node i's children are 2i + 1 and
// 2i + 2 while they are below `nodes`, so every level but the last is full
// and `nodes` sets the last one's size. check_state logs which thread
// checked which code, in the order each thread checked them.
struct TreeModel {
  struct State {
    std::uint64_t bits = 0;
  };
  std::uint64_t nodes = 1;
  mutable std::mutex mu;
  mutable std::vector<std::pair<std::thread::id, std::uint64_t>> checked;

  int code_bits() const {
    return static_cast<int>(std::bit_width(nodes - 1));
  }
  std::vector<State> initial_states() const { return {State{0}}; }
  template <class Emit>
  void successors(const State& st, Emit&& emit) const {
    for (const std::uint64_t child : {2 * st.bits + 1, 2 * st.bits + 2}) {
      if (child < nodes) emit(State{child}, kLabelNone);
    }
  }
  std::string check_state(const State& st) const {
    const std::lock_guard<std::mutex> lock(mu);
    checked.emplace_back(std::this_thread::get_id(), st.bits);
    return {};
  }
  std::string describe(const State& st) const {
    return std::to_string(st.bits);
  }

  static std::size_t level_of(std::uint64_t code) {
    return static_cast<std::size_t>(std::bit_width(code + 1)) - 1;
  }
};

static_assert(Model<TreeModel>);

// The order a FIFO-queue BFS visits the model's codes in.
std::vector<std::uint64_t> fifo_bfs(const TreeModel& model) {
  std::vector<std::uint64_t> order;
  std::set<std::uint64_t> seen;
  for (const TreeModel::State& s : model.initial_states()) {
    if (seen.insert(s.bits).second) order.push_back(s.bits);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    model.successors(TreeModel::State{order[i]},
                     [&](const TreeModel::State& next, std::uint8_t) {
                       if (seen.insert(next.bits).second) {
                         order.push_back(next.bits);
                       }
                     });
  }
  return order;
}

// Whether every thread checked each level's codes in the order the engine
// hands out its chunks, if `workers` lists the threads in worker order. A
// part of a level is one worker's finds: the codes whose parents it
// expanded, in the order it expanded them, each parent's children in code
// order. A thread takes its own part first, then the part of each other
// worker in turn (its index + 1, + 2, ... modulo the worker count), each
// in order. So a code's place, for the thread that checks it, is (how many
// turns after its own part the finder's part comes, where the code's
// parent sits in the finder's part of the level before, the code).
bool checked_in_claim_order(
    const std::vector<std::pair<std::thread::id, std::uint64_t>>& checked,
    const std::vector<std::thread::id>& workers) {
  using Place = std::tuple<std::size_t, std::size_t, std::uint64_t>;
  const auto index_of = [&](std::thread::id thread) {
    return static_cast<std::size_t>(
        std::find(workers.begin(), workers.end(), thread) - workers.begin());
  };
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> expanded;
  std::map<std::thread::id, std::vector<std::size_t>> parts;  // per level
  for (const auto& [thread, code] : checked) {
    std::vector<std::size_t>& part = parts[thread];
    const std::size_t level = TreeModel::level_of(code);
    if (part.size() <= level) part.resize(level + 1);
    expanded[code] = {index_of(thread), part[level]++};
  }
  std::map<std::thread::id, Place> last;
  for (const auto& [thread, code] : checked) {
    if (code == 0) continue;
    const auto [finder, rank] = expanded.at((code - 1) / 2);
    const std::size_t turn =
        (finder + workers.size() - index_of(thread)) % workers.size();
    const Place place{turn, rank, code};
    const auto previous = last.find(thread);
    if (previous != last.end() &&
        TreeModel::level_of(std::get<2>(previous->second)) ==
            TreeModel::level_of(code) &&
        !(previous->second < place)) {
      return false;
    }
    last[thread] = place;
  }
  return true;
}

// The frontier's order contract, at the engine. One worker checks (and so
// expands) every state in the order a FIFO BFS visits it; with three
// workers every level is the same set, and each thread checks its codes in
// the order the engine hands out chunks: its own finds first, then each
// other worker's in turn, each in the order they were found. The trees'
// last levels are 4096 codes (one whole block) then 4097 (a block and one
// code), and 8192 then 16384 (two, then four whole blocks). ParallelEngine
// name = sanitizer coverage.
TEST(ParallelEngine, LevelsExpandInDiscoveryOrder) {
  for (const std::uint64_t nodes :
       {std::uint64_t{8191 + 4097}, std::uint64_t{32767}}) {
    const std::vector<std::uint64_t> reference = [&] {
      TreeModel model;
      model.nodes = nodes;
      return fifo_bfs(model);
    }();
    std::map<std::size_t, std::set<std::uint64_t>> levels;
    for (const std::uint64_t code : reference) {
      levels[TreeModel::level_of(code)].insert(code);
    }

    TreeModel one;
    one.nodes = nodes;
    const CheckResult single = run_check(one, {.threads = 1});
    ASSERT_TRUE(single.ok()) << single.counterexample;
    EXPECT_EQ(single.states, nodes);
    EXPECT_EQ(single.depth, levels.size() - 1);
    std::vector<std::uint64_t> order;
    for (const auto& [thread, code] : one.checked) order.push_back(code);
    EXPECT_EQ(order, reference) << "nodes=" << nodes;

    TreeModel three;
    three.nodes = nodes;
    const CheckResult parallel = run_check(three, {.threads = 3});
    ASSERT_TRUE(parallel.ok()) << parallel.counterexample;
    EXPECT_EQ(parallel.states, single.states);
    EXPECT_EQ(parallel.transitions, single.transitions);
    EXPECT_EQ(parallel.depth, single.depth);
    ASSERT_EQ(three.checked.size(), reference.size());
    std::map<std::size_t, std::set<std::uint64_t>> parallel_levels;
    for (const auto& [thread, code] : three.checked) {
      parallel_levels[TreeModel::level_of(code)].insert(code);
    }
    EXPECT_EQ(parallel_levels, levels) << "nodes=" << nodes;

    // The caller is worker 0; the pool threads' indices are not visible,
    // so some order of them must explain every thread's checks. A pool
    // thread that checked nothing still has an index: a default id holds
    // its place.
    std::vector<std::thread::id> pool;
    for (const auto& [thread, code] : three.checked) {
      if (thread != std::this_thread::get_id() &&
          std::find(pool.begin(), pool.end(), thread) == pool.end()) {
        pool.push_back(thread);
      }
    }
    ASSERT_LE(pool.size(), 2u);
    pool.resize(2);
    std::sort(pool.begin(), pool.end());
    bool explained = false;
    do {
      std::vector<std::thread::id> workers{std::this_thread::get_id()};
      workers.insert(workers.end(), pool.begin(), pool.end());
      explained = explained || checked_in_claim_order(three.checked, workers);
    } while (std::next_permutation(pool.begin(), pool.end()));
    EXPECT_TRUE(explained) << "nodes=" << nodes;
  }
}

// --- the codec and seen-set, directly ---------------------------------------

TEST(Codec, DeltaEdgeLogRoundTripsEdges) {
  DeltaEdgeLog log;
  using Edge = std::pair<std::uint64_t, std::uint8_t>;
  const std::vector<std::vector<Edge>> records = {
      {{0x123456789abull, kLabelNone}, {0x123456789acull, kLabelSubjectMeal}},
      {},
      {{42, kLabelWrongfulSuspicion}},
  };
  const std::vector<std::uint64_t> froms = {0x123456789aaull, 7, 40};
  for (std::size_t n = 0; n < records.size(); ++n) {
    log.append(froms[n], records[n]);
  }
  EXPECT_EQ(log.edges, 3u);
  for (std::size_t n = 0; n < records.size(); ++n) {
    EXPECT_EQ(log.degree(n), records[n].size());
    std::vector<Edge> got;
    log.decode(n, [&](std::uint64_t to, std::uint8_t label) {
      got.emplace_back(to, label);
    });
    EXPECT_EQ(got, records[n]) << "record " << n;
  }
}

// Spreads consecutive indices over the whole width (an odd multiplier is a
// bijection mod 2^bits), so racing inserts land all over the bitmap.
std::uint64_t spread_code(std::uint64_t index, int bits) {
  return (index * 0x9e3779b97f4a7c15ull) & code_mask(bits);
}

// The bitmap's insert is a load then a fetch_or: of racing inserts of one
// code exactly one succeeds. The codes are scattered so that threads also
// set different bits of one word at once. (ParallelEngine name = TSan
// coverage.)
TEST(ParallelEngine, BitmapSeenSetConcurrentInsert) {
  constexpr int kBits = 20;
  constexpr std::uint64_t kKeys = std::uint64_t{1} << kBits;
  constexpr int kThreads = 8;
  detail::BitmapSeenSet seen(kBits);
  EXPECT_EQ(seen.bytes(), kKeys / 8);
  std::atomic<std::uint64_t> inserted{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&seen, &inserted, t] {
      // Each thread covers half of all codes, so every code is raced by
      // four threads.
      std::uint64_t mine = 0;
      for (std::uint64_t i = 0; i < kKeys / 2; ++i) {
        const std::uint64_t index =
            i + static_cast<std::uint64_t>(t) * (kKeys / kThreads);
        if (seen.insert(spread_code(index, kBits))) ++mine;
      }
      inserted.fetch_add(mine);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(inserted.load(), kKeys);
  for (std::uint64_t code = 0; code < kKeys; code += 997) {
    EXPECT_FALSE(seen.insert(code)) << code;
  }
}

TEST(ParallelEngine, SlabMapsAlignedZeroedPagesAndReleasesThem) {
  constexpr std::size_t kPage = 4096;
  constexpr std::size_t kSlots = 3 * detail::kHugePage / sizeof(std::uint32_t);
  auto slab = std::make_unique<detail::Slab<std::uint32_t>>(kSlots);
  ASSERT_TRUE(slab->mapped());
  const auto address = reinterpret_cast<std::uintptr_t>(slab->data);
  EXPECT_EQ(address % detail::kHugePage, 0u);
  for (std::size_t i = 0; i < kSlots; i += kPage / sizeof(std::uint32_t)) {
    ASSERT_EQ(slab->data[i], 0u) << "slot " << i;
    slab->data[i] = 1;  // every page writable
  }
  EXPECT_EQ(slab->data[kSlots - 1], 0u);
  slab.reset();
#if defined(__linux__)
  // The pages left the process: the range is no longer mapped at all.
  unsigned char residency[3 * detail::kHugePage / kPage];
  errno = 0;
  EXPECT_EQ(mincore(reinterpret_cast<void*>(address), 3 * detail::kHugePage,
                    residency),
            -1);
  EXPECT_EQ(errno, ENOMEM);
#endif

  // Below a huge page the slab is a cleared heap block.
  detail::Slab<std::uint64_t> small(1024);
  EXPECT_FALSE(small.mapped());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small.data) % 64, 0u);
  for (std::size_t i = 0; i < small.count; ++i) {
    ASSERT_EQ(small.data[i], 0u) << "slot " << i;
  }
}

// --- the seen-set each model in src/ holds ----------------------------------

// Each check holds exactly one bitmap over its model's codes, from the
// first state to the verdict, and no second table: GKK (6-bit codes), the
// ablation (8 bits) and the four two-pair reduction relations (20-24 bits,
// coded by pair-table index), each explored identically on 1 and 4 threads.
TEST(ModelChecker, SourceModelsEndOnTheBitmapSeenSet) {
  for (const GkkBoxSemantics box :
       {GkkBoxSemantics::kForkBased, GkkBoxSemantics::kLockout}) {
    EXPECT_EQ(check_gkk(box).seen_bytes,
              detail::BitmapSeenSet::bytes_for(GkkModel(box).code_bits()));
  }
  EXPECT_EQ(check_ablation().seen_bytes,
            detail::BitmapSeenSet::bytes_for(AblationModel{}.code_bits()));

  for (const BoxMode mode : {BoxMode::kExclusive, BoxMode::kArbitrary}) {
    for (const bool crash : {false, true}) {
      McOptions options;
      options.mode = mode;
      options.allow_crash = crash;
      options.check_accuracy = mode == BoxMode::kExclusive;
      options.pairs = 2;
      const ReductionModel model(options);
      const int bits = model.code_bits();
      EXPECT_EQ(bits, mode == BoxMode::kExclusive ? (crash ? 24 : 20)
                                                  : (crash ? 24 : 22));
      const CheckResult one = run_check(model, {.threads = 1});
      const CheckResult four = run_check(model, {.threads = 4});
      for (const CheckResult* result : {&one, &four}) {
        ASSERT_TRUE(result->ok()) << result->counterexample;
        EXPECT_EQ(result->seen_bytes, detail::BitmapSeenSet::bytes_for(bits))
            << "bits=" << bits << " threads=" << result->threads;
      }
      EXPECT_EQ(four.states, one.states) << "bits=" << bits;
      EXPECT_EQ(four.transitions, one.transitions) << "bits=" << bits;
      EXPECT_EQ(four.depth, one.depth) << "bits=" << bits;
    }
  }
}

}  // namespace
}  // namespace wfd::mc
