// The unified model-checking API. A "model" is anything the explicit-state
// engine (engine.hpp) can explore: a packed, trivially copyable state type
// and the width of its codes, a set of initial states, a successor
// generator that hands each edge to a caller-supplied sink, and a
// per-state invariant hook. The three checkers
// in this directory — the Alg. 1/2 reduction, the GKK counterexample, and
// the E9 single-instance ablation — all implement this concept, and every
// test and bench drives them exclusively through mc::run_check /
// mc::CheckResult.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace wfd::mc {

enum class Verdict : std::uint8_t {
  kOk,              ///< the full reachable space was covered, no violation
  kViolation,       ///< an invariant failed or a lasso exists
  kBudgetExceeded,  ///< max_states hit before the space was covered
};

inline const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kViolation: return "violation";
    case Verdict::kBudgetExceeded: return "budget_exceeded";
  }
  return "?";
}

/// State-space reduction level. Verdicts are identical at every level for
/// models whose checked properties satisfy the levels' soundness gates (the
/// engine silently downgrades to what the model's hooks support — see
/// CheckResult::reduction for what actually ran):
///  * kSymmetry — canonicalize every successor to the lexicographically
///    least representative of its orbit under the model's process-renaming
///    group before the seen-set probe. Sound for orbit-invariant properties;
///    stored states shrink by up to the group order.
///  * kPor — partial-order reduction over the model's independent
///    components: component k's moves are explored only while every
///    component j < k sits at its local initial state (plus a deadlock
///    proviso: a state whose reduced expansion is empty is re-expanded in
///    full). This particular ample-set rule preserves the REACHABLE STATE
///    SET exactly — only commuting interleavings (transitions) are pruned —
///    so state invariants (check_state) are sound verbatim; the model must
///    still declare its properties stutter-invariant (por_stutter_invariant)
///    because transition-sensitive properties could observe the pruned
///    interleavings. BFS depths may differ from kNone.
///  * kSymmetryPor — both; symmetry restricted to the per-component
///    subgroup (component-permuting renamings would strand the POR
///    component ordering, so the engine asks the model's canonical() hook
///    for the POR-compatible canonicalization).
enum class Reduction : std::uint8_t {
  kNone = 0,
  kSymmetry = 1,
  kPor = 2,
  kSymmetryPor = 3,
};

inline const char* reduction_name(Reduction r) {
  switch (r) {
    case Reduction::kNone: return "none";
    case Reduction::kSymmetry: return "symmetry";
    case Reduction::kPor: return "por";
    case Reduction::kSymmetryPor: return "symmetry_por";
  }
  return "?";
}

inline bool reduction_has_symmetry(Reduction r) {
  return r == Reduction::kSymmetry || r == Reduction::kSymmetryPor;
}
inline bool reduction_has_por(Reduction r) {
  return r == Reduction::kPor || r == Reduction::kSymmetryPor;
}

/// The widest state code a model may declare: the engine's seen-set is a
/// bitmap over every code (seen.hpp), so 32 bits already reserves 512 MiB
/// of lazily mapped address space; the widest model here uses 24.
inline constexpr int kMaxCodeBits = 32;

/// Engine knobs, shared by every model.
struct CheckOptions {
  /// Worker threads for the frontier exploration; 0 = hardware concurrency.
  int threads = 0;
  /// Abort (verdict = kBudgetExceeded) past this count.
  std::uint64_t max_states = 50'000'000;
  /// Optional metrics registry: the engine registers mc.states /
  /// mc.transitions / mc.levels counters, an mc.level_states_per_sec and a
  /// per-worker mc.barrier_wait_us histogram, and mc.seen_load_pct and
  /// mc.frontier_peak_bytes gauges.
  /// Instrumentation never changes the exploration (the verdict and counts
  /// stay thread-count-independent and identical to an uninstrumented run).
  obs::Registry* metrics = nullptr;
  /// Optional span log: one span per BFS level (track 0, arg = states in
  /// the level) plus a final "analyze" span, exportable to Perfetto via
  /// obs::write_perfetto_spans.
  obs::SpanLog* spans = nullptr;
  /// Requested state-space reduction. The engine applies at most what the
  /// model's hooks (SymmetricModel / PorModel) and soundness gates support
  /// and reports the level that actually ran in CheckResult::reduction.
  Reduction reduction = Reduction::kNone;
};

/// The single result shape every checker returns.
struct CheckResult {
  Verdict verdict = Verdict::kOk;
  std::uint64_t states = 0;       ///< distinct states expanded
  std::uint64_t transitions = 0;  ///< edges explored
  std::uint64_t depth = 0;        ///< max BFS distance from an initial state
  std::string counterexample;     ///< violation / witness cycle, readable
  double wall_ms = 0.0;           ///< exploration wall time
  int threads = 1;                ///< worker threads actually used
  std::uint64_t seen_bytes = 0;   ///< seen-set footprint: the bitmap's
                                  ///< 2^code_bits / 8 bytes
  std::uint64_t graph_bytes = 0;  ///< CSR reachable-graph footprint (0 if
                                  ///< the model has no analyze hook)
  Reduction reduction = Reduction::kNone;  ///< reduction level actually run
  std::uint64_t frontier_peak_bytes = 0;   ///< peak frontier: 4 bytes a
                                           ///< code over the largest two
                                           ///< consecutive levels

  bool ok() const { return verdict == Verdict::kOk; }
};

/// Edge labels a model may attach to transitions; only consumed by the
/// model's own `analyze` hook (liveness/lasso searches).
enum EdgeLabel : std::uint8_t {
  kLabelNone = 0,
  kLabelWrongfulSuspicion = 1 << 0,
  kLabelSubjectMeal = 1 << 1,
};

namespace detail {
/// The sink type the concepts below check `successors` against; the engine
/// passes its own (a lambda that inserts each successor as it arrives).
template <class S>
struct EmitArchetype {
  void operator()(const S&, std::uint8_t) const {}
};
}  // namespace detail

/// The reachable graph handed to `analyze` hooks, stored as compressed
/// sparse rows: nodes sorted ascending by packed key (so analysis output is
/// deterministic regardless of how many workers explored), one flat edge
/// array indexed by per-node offsets: four flat allocations, not one tree
/// node plus one heap vector per state.
template <class S>
class ReachView {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  ReachView() = default;
  /// Built by the engine from per-worker edge logs; `keys` must be sorted
  /// ascending and unique, `offsets` exclusive-prefix with offsets.back()
  /// == to.size() == labels.size().
  ReachView(std::vector<std::uint64_t> keys,
            std::vector<std::uint64_t> offsets, std::vector<S> to,
            std::vector<std::uint8_t> labels)
      : keys_(std::move(keys)),
        offsets_(std::move(offsets)),
        to_(std::move(to)),
        labels_(std::move(labels)) {}

  std::size_t node_count() const { return keys_.size(); }
  std::uint64_t key(std::size_t node) const { return keys_[node]; }

  /// Node index of `key`, or npos. Binary search over the sorted key array.
  std::size_t find(std::uint64_t key) const {
    std::size_t lo = 0;
    std::size_t hi = keys_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (keys_[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < keys_.size() && keys_[lo] == key ? lo : npos;
  }

  std::size_t out_degree(std::size_t node) const {
    return static_cast<std::size_t>(offsets_[node + 1] - offsets_[node]);
  }
  const S& edge_to(std::size_t node, std::size_t e) const {
    return to_[offsets_[node] + e];
  }
  std::uint8_t edge_label(std::size_t node, std::size_t e) const {
    return labels_[offsets_[node] + e];
  }

  /// Footprint of the CSR arrays (reported as CheckResult::graph_bytes).
  std::uint64_t bytes() const {
    return keys_.capacity() * sizeof(std::uint64_t) +
           offsets_.capacity() * sizeof(std::uint64_t) +
           to_.capacity() * sizeof(S) + labels_.capacity();
  }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> offsets_;  // size node_count() + 1
  std::vector<S> to_;
  std::vector<std::uint8_t> labels_;
};

/// What the engine requires of a model:
///  * `State` — trivially copyable, with a packed integral `bits` key that
///    uniquely identifies the state. The engine stores only the packed key
///    (frontiers are packed code vectors, the seen-set a bitmap over every
///    key) and rebuilds states by aggregate-initializing from it, so
///    `State{bits}` must reproduce the state;
///  * `code_bits()` — how many low bits of the key are significant, in
///    [1, kMaxCodeBits]. It sizes the seen-set (2^code_bits bits) and the
///    frontier's codes; run_check refuses a width outside that range, and a
///    state whose key sets a higher bit, with a `model error:` verdict;
///  * `initial_states()` — the exploration roots;
///  * `successors(s, emit)` — a member template over the sink: call
///    emit(to, label) once per enabled transition from `s`. The engine's
///    sink canonicalizes and inserts each successor as it is emitted, so no
///    edge list is ever built;
///  * `check_state(s)` — invariant of `s`; non-empty string = violation. A
///    property of a state's outgoing edges (deadlock-freedom, a one-step
///    structural lemma) is the model's to precompute and report here: the
///    engine hands no edge list back;
///  * `describe(s)` — human-readable rendering for diagnostics.
template <class M>
concept Model =
    std::is_trivially_copyable_v<typename M::State> &&
    requires(const M model, const typename M::State state,
             const detail::EmitArchetype<typename M::State> emit) {
      { static_cast<std::uint64_t>(state.bits) };
      { typename M::State{state.bits} } -> std::same_as<typename M::State>;
      { model.code_bits() } -> std::convertible_to<int>;
      { model.initial_states() } -> std::same_as<std::vector<typename M::State>>;
      { model.successors(state, emit) } -> std::same_as<void>;
      { model.check_state(state) } -> std::same_as<std::string>;
      { model.describe(state) } -> std::same_as<std::string>;
    };

/// Models that additionally analyze the complete reachable graph after
/// exploration (lasso searches for liveness properties). A non-empty return
/// is reported as the counterexample with verdict = kViolation.
template <class M>
concept AnalyzableModel =
    Model<M> &&
    requires(const M model, const ReachView<typename M::State>& graph) {
      { model.analyze(graph) } -> std::same_as<std::string>;
    };

/// Opt-in symmetry-reduction hook: `canonical(s, level)` returns the
/// lexicographically least representative (by packed key) of s's orbit
/// under the renaming group the model supports at `level`. Requirements the
/// engine relies on: the map must be idempotent, every group element must
/// be an automorphism of the transition relation, and every property the
/// model checks (check_state / analyze labels) must be orbit-invariant.
/// For kSymmetryPor the model must restrict the group to renamings that fix
/// the POR component ordering.
template <class M>
concept SymmetricModel =
    Model<M> && requires(const M model, const typename M::State state) {
      {
        model.canonical(state, Reduction::kSymmetry)
      } -> std::same_as<typename M::State>;
    };

/// Opt-in partial-order-reduction hook: the model decomposes its transition
/// relation into `por_components()` independent components (component k's
/// transitions read and write only component-k state). The engine explores
/// component k's moves only from states where all components j < k are
/// quiescent (component_quiescent — "at the local initial state"), which
/// preserves the reachable state set exactly while pruning commuting
/// interleavings. `component_successors(s, k, emit)` emits component k's
/// moves the way `successors` emits all of them.
/// `por_stutter_invariant()` is the soundness gate: it must return true
/// only if every checked property is insensitive to the pruned
/// interleavings (component-local state invariants qualify); the engine
/// refuses to apply POR when it returns false, and also when the model
/// collects a reachable graph for `analyze` (lasso searches see
/// transitions, which POR prunes).
template <class M>
concept PorModel =
    Model<M> &&
    requires(const M model, const typename M::State state,
             const detail::EmitArchetype<typename M::State> emit) {
      { model.por_components() } -> std::convertible_to<int>;
      { model.component_successors(state, 0, emit) } -> std::same_as<void>;
      { model.component_quiescent(state, 0) } -> std::convertible_to<bool>;
      { model.por_stutter_invariant() } -> std::convertible_to<bool>;
    };

/// The reduction level the engine will actually run for `model` when
/// `requested` is asked for (hooks present + soundness gates). Exposed so
/// callers (benches, campaign sizing) can predict the effective level.
template <class M>
Reduction applied_reduction(const M& model, Reduction requested) {
  bool symmetry = reduction_has_symmetry(requested) && SymmetricModel<M>;
  bool por = reduction_has_por(requested);
  if constexpr (PorModel<M>) {
    por = por && model.por_components() > 1 && model.por_stutter_invariant() &&
          !AnalyzableModel<M>;
  } else {
    por = false;
  }
  if (symmetry && por) return Reduction::kSymmetryPor;
  if (symmetry) return Reduction::kSymmetry;
  if (por) return Reduction::kPor;
  return Reduction::kNone;
}

}  // namespace wfd::mc
