// Parallel explicit-state exploration engine behind mc::run_check.
//
// Layer-synchronous BFS: all states at distance d are expanded (in parallel
// chunks, by a persistent pool of worker threads synchronized with a
// std::barrier) before any state at distance d+1. Deduplication goes through
// one lock-free bitmap over every code of the model's declared width
// (seen.hpp): it is allocated once, before the first state, and never
// grows, so no worker ever waits on it. A width outside [1, kMaxCodeBits],
// or a state code that sets a bit above the width, stops the check with a
// `model error:` verdict.
//
// Expansion builds no edge list: the model's `successors` (a member
// template) calls the engine's sink once per edge, and the sink
// canonicalizes, validates and inserts the successor into the bitmap there
// and then. A property of a state's edges (deadlock, Theorem 1) is the
// model's to precompute and report from check_state.
//
// The frontier is plain 32-bit codes (kMaxCodeBits is 32): each worker
// appends the codes it finds to its own list of fixed 4096-code blocks.
// All work between two levels is the barrier's completion step, on one
// thread while the others wait: level totals, metrics, spans, the least
// violation, the budget check, and opening the next level, whose chunks
// take the workers' lists in worker order and each in the order its codes
// were found, so one worker expands every level in discovery order. Every
// thread runs one expand-then-wait loop, and a level costs one barrier
// phase. A worker expands its own list's chunks first, then the others' in
// turn: its own codes are still in its cache (EXPERIMENTS E17).
//
// State-space reductions (CheckOptions::reduction; see model.hpp for the
// soundness contracts):
//  * symmetry — every successor is canonicalized to the least orbit
//    representative (the model's SymmetricModel::canonical hook) before the
//    seen-set probe, so one state per orbit is stored and expanded;
//  * partial-order — successors come from the model's PorModel component
//    hooks: component k's moves are generated only while all components
//    j < k sit at their local initial states, which prunes commuting
//    interleavings while preserving the reachable state set exactly. A
//    state whose reduced expansion emitted nothing is re-expanded in full
//    (the deadlock proviso), and the engine refuses POR for models that
//    collect a reachable graph (lasso searches see transitions) or whose
//    por_stutter_invariant() gate returns false.
//
// For AnalyzableModel types each worker appends its expansions to a
// delta-compressed edge log (codec.hpp); after exploration the logs are
// merged once into a CSR ReachView sorted by packed key, so `analyze` hooks
// see a deterministic graph regardless of worker count.
//
// Determinism guarantee: the verdict, reachable-state count, transition
// count, max depth, and the selected counterexample are identical for every
// thread count AT A GIVEN REDUCTION LEVEL. This holds because (a) the set
// of states at each BFS level is a pure function of the level before it,
// regardless of which worker wins an insertion race (canonicalization and
// the POR rule are both pure per-state functions, and which worker finds
// a code only changes where the level holds it and when it is expanded,
// never which codes the level holds); (b) a level is always
// expanded to completion before violations are reported; and (c) among the
// violations found in the first offending level, the one with the smallest
// packed state key is selected — an order-free criterion.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mc/codec.hpp"
#include "mc/model.hpp"
#include "mc/seen.hpp"

namespace wfd::mc {
namespace detail {

inline int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Rebuild a state from its packed code. States are single-field aggregates
/// over their packed key (the Model concept requires constructibility from
/// it), so this is a cast, not a decompression.
template <class S>
S decode_state(std::uint64_t code) {
  return S{static_cast<decltype(std::declval<S>().bits)>(code)};
}

/// One worker's codes for one BFS level, in the order it found them, in
/// fixed blocks of kBlockCodes: a growing level never moves or doubles, and
/// a cleared list keeps its blocks for the next level it holds.
class CodeBlocks {
 public:
  static constexpr std::size_t kBlockCodes = 4096;

  void push(std::uint32_t code) {
    if (next_ == end_) open_block();
    *next_++ = code;
  }

  std::size_t size() const {
    return used_ * kBlockCodes - static_cast<std::size_t>(end_ - next_);
  }

  /// Calls fn on each block's codes, in push order.
  template <class Fn>
  void for_each_block(Fn&& fn) const {
    for (std::size_t b = 0; b < used_; ++b) {
      const std::uint32_t* const first = blocks_[b].get();
      fn(std::span<const std::uint32_t>(
          first, b + 1 < used_ ? first + kBlockCodes : next_));
    }
  }

  void clear() {
    used_ = 0;
    next_ = end_ = nullptr;
  }

 private:
  void open_block() {
    if (used_ == blocks_.size()) {
      blocks_.push_back(
          std::make_unique_for_overwrite<std::uint32_t[]>(kBlockCodes));
    }
    next_ = blocks_[used_++].get();
    end_ = next_ + kBlockCodes;
  }

  // The first used_ blocks hold codes; [next_, end_) is the free room of
  // the last of them. The push cursor is two pointers, not a count, since
  // it is bumped once per new state: a count costs ~6% of a pass.
  std::vector<std::unique_ptr<std::uint32_t[]>> blocks_;
  std::size_t used_ = 0;
  std::uint32_t* next_ = nullptr;
  std::uint32_t* end_ = nullptr;
};

/// Per-worker state, allocated once and reused across every BFS level (the
/// vectors and code blocks keep their capacity, so steady-state expansion
/// does not allocate). Aligned to a cache line because a worker writes its
/// `found` tail on every new state.
struct alignas(64) Worker {
  CodeBlocks found;  // the next level's codes this worker found
  CodeBlocks level;  // the codes it found for the level being expanded
  std::vector<std::pair<std::uint64_t, std::uint8_t>> edge_codes;
  std::uint64_t transitions = 0;
  bool has_violation = false;
  std::uint64_t violation_key = 0;
  std::string violation;
  // Delta-compressed edge log for CSR assembly (collect-graph models only).
  DeltaEdgeLog log;
  // `level` is chunks [next_chunk, chunks_end) of the level; other workers
  // claim them too, so these sit last, on a cache line of their own.
  alignas(64) std::atomic<std::size_t> next_chunk{0};
  std::size_t chunks_end = 0;
};

/// Merge the per-worker edge logs into a CSR ReachView sorted by packed key
/// (keys are unique — each state is expanded exactly once — so the result
/// is independent of which worker expanded what).
template <class S>
ReachView<S> build_reach_view(std::vector<Worker>& workers) {
  struct NodeRef {
    std::uint64_t key;
    std::uint32_t worker;
    std::uint32_t node;  // index into the owning worker's log
  };
  std::size_t nodes = 0;
  std::size_t edges = 0;
  for (const Worker& w : workers) {
    nodes += w.log.keys.size();
    edges += static_cast<std::size_t>(w.log.edges);
  }
  std::vector<NodeRef> refs;
  refs.reserve(nodes);
  for (std::uint32_t w = 0; w < workers.size(); ++w) {
    for (std::size_t n = 0; n < workers[w].log.keys.size(); ++n) {
      refs.push_back({workers[w].log.keys[n], w, static_cast<std::uint32_t>(n)});
    }
  }
  std::sort(refs.begin(), refs.end(),
            [](const NodeRef& a, const NodeRef& b) { return a.key < b.key; });

  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> offsets;
  std::vector<S> to;
  std::vector<std::uint8_t> labels;
  keys.reserve(nodes);
  offsets.reserve(nodes + 1);
  to.reserve(edges);
  labels.reserve(edges);
  offsets.push_back(0);
  for (const NodeRef& ref : refs) {
    keys.push_back(ref.key);
    workers[ref.worker].log.decode(
        ref.node, [&](std::uint64_t to_code, std::uint8_t label) {
          to.push_back(decode_state<S>(to_code));
          labels.push_back(label);
        });
    offsets.push_back(static_cast<std::uint64_t>(to.size()));
  }
  return ReachView<S>(std::move(keys), std::move(offsets), std::move(to),
                      std::move(labels));
}

}  // namespace detail

/// Exhaustively explore `model`; returns after the full (finite) reachable
/// space is covered, or at the end of the first BFS level containing a
/// violation, or once `options.max_states` is exceeded (verdict =
/// kBudgetExceeded). For AnalyzableModel types the complete reachable graph
/// is assembled into a CSR ReachView and handed to the model's `analyze`
/// hook afterwards (liveness/lasso searches).
template <Model M>
CheckResult run_check(const M& model, const CheckOptions& options = {}) {
  using S = typename M::State;
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  CheckResult result;
  result.threads = detail::resolve_threads(options.threads);
  const int workers = result.threads;

  const Reduction reduction = applied_reduction(model, options.reduction);
  result.reduction = reduction;
  const bool symmetry = reduction_has_symmetry(reduction);
  const bool por = reduction_has_por(reduction);
  // `canon` and `code_invalid` hold the check's invariants by value, and
  // the expand step's sink copies both: read through references to this
  // frame, which the worker threads share, they were reloaded on every edge.
  const auto canon = [&model, symmetry, reduction](const S& s) -> S {
    if constexpr (SymmetricModel<M>) {
      if (symmetry) return model.canonical(s, reduction);
    }
    return s;
  };
  // Successor generation into `emit`: under POR, component k's moves only
  // while every component j < k is quiescent; a state that emitted no
  // reduced move (`degree` still 0) falls back to the full expansion
  // (deadlock proviso — a pure function of the state, so determinism is
  // unaffected).
  const auto generate = [&](const S& st, auto& emit,
                            const std::size_t& degree) {
    if constexpr (PorModel<M>) {
      if (por) {
        const int components = model.por_components();
        for (int k = 0; k < components; ++k) {
          model.component_successors(st, k, emit);
          if (!model.component_quiescent(st, k)) break;
        }
        if (degree == 0) model.successors(st, emit);
        return;
      }
    }
    model.successors(st, emit);
  };

  const auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };

  // Checked before anything is sized from it: the seen-set alone takes
  // 2^width bits.
  const int width = model.code_bits();
  if (width < 1 || width > kMaxCodeBits) {
    result.verdict = Verdict::kViolation;
    result.counterexample = "model error: code_bits() is " +
                            std::to_string(width) + ", outside [1, " +
                            std::to_string(kMaxCodeBits) + "]";
    result.wall_ms = elapsed_ms();
    return result;
  }

  detail::BitmapSeenSet seen(width);
  std::vector<detail::Worker> outs(static_cast<std::size_t>(workers));

  // Instrumentation (all optional; never perturbs the exploration).
  obs::Registry* const metrics = options.metrics;
  std::unique_ptr<obs::Scope> mscope;  // written by the level step only
  obs::Registry::Id m_states = 0, m_transitions = 0, m_levels = 0;
  obs::Registry::Id m_level_rate = 0, m_barrier = 0, g_seen_load = 0;
  obs::Registry::Id g_frontier_peak = 0;
  if (metrics != nullptr) {
    m_states = metrics->counter("mc.states");
    m_transitions = metrics->counter("mc.transitions");
    m_levels = metrics->counter("mc.levels");
    m_level_rate = metrics->histogram("mc.level_states_per_sec");
    m_barrier = metrics->histogram("mc.barrier_wait_us");
    g_seen_load = metrics->gauge("mc.seen_load_pct");
    g_frontier_peak = metrics->gauge("mc.frontier_peak_bytes");
    mscope = std::make_unique<obs::Scope>(*metrics);
  }

  // The one exit epilogue: EVERY return path seals the result through this,
  // so wall_ms / seen_bytes / graph_bytes and the gauges are populated
  // consistently no matter how the exploration ended (clean cover,
  // violation, budget, or a model-error early out; only a refused width
  // returns before there is a seen-set to report).
  const auto seal = [&](std::uint64_t graph_bytes) {
    result.seen_bytes = seen.bytes();
    result.graph_bytes = graph_bytes;
    result.wall_ms = elapsed_ms();
    if (metrics != nullptr) {
      metrics->set_gauge(
          g_seen_load,
          100.0 * static_cast<double>(result.states) /
              static_cast<double>(seen.capacity()));
      metrics->set_gauge(g_frontier_peak,
                         static_cast<double>(result.frontier_peak_bytes));
    }
  };

  // A code is invalid if it sets bits above the model's declared width:
  // it has no bit in the seen-set.
  const auto code_invalid = [over_width = ~code_mask(width)](
                                std::uint64_t code) {
    return (code & over_width) != 0;
  };

  for (const S& s : model.initial_states()) {
    const S c = canon(s);
    const auto code = static_cast<std::uint64_t>(c.bits);
    if (code_invalid(code)) {
      result.verdict = Verdict::kViolation;
      result.counterexample =
          "model error: initial state code exceeds the declared code_bits "
          "width";
      seal(0);
      return result;
    }
    if (seen.insert(code)) outs[0].found.push(static_cast<std::uint32_t>(code));
  }

  constexpr bool kCollectGraph = AnalyzableModel<M>;

  // The level being expanded. The level step sets these while every worker
  // waits at the barrier, which orders its writes before the level's reads;
  // during the level, workers only claim chunks through `next_chunk`.
  std::vector<std::span<const std::uint32_t>> chunks;
  std::size_t level_size = 0;
  auto level_start = Clock::now();
  bool stop = false;  // the workers leave their loop

  // The model emits each successor straight into `sink`, which
  // canonicalizes, validates and inserts it; no edge list is built.
  const auto expand = [&](std::size_t me) {
    detail::Worker& out = outs[me];
    std::size_t degree = 0;
    bool invalid = false;
    // The bitmap's words, copied into the sink like `canon` and
    // `code_invalid`.
    std::uint64_t* const words = seen.words();
    detail::CodeBlocks& found = out.found;
    const auto sink = [&, canon, code_invalid, words](const S& next,
                                                      std::uint8_t label) {
      ++degree;
      const S to = canon(next);
      const auto to_code = static_cast<std::uint64_t>(to.bits);
      if constexpr (kCollectGraph) out.edge_codes.push_back({to_code, label});
      if (code_invalid(to_code)) {
        invalid = true;  // it has no bit; the level reports it
        return;
      }
      if (detail::BitmapSeenSet::insert(words, to_code)) {
        found.push(static_cast<std::uint32_t>(to_code));
      }
    };
    for (std::size_t turn = 0; turn < outs.size(); ++turn) {  // own first
      detail::Worker& owner = outs[(me + turn) % outs.size()];
      for (std::size_t ci = owner.next_chunk.fetch_add(1);
           ci < owner.chunks_end; ci = owner.next_chunk.fetch_add(1)) {
        for (const std::uint64_t key : chunks[ci]) {
          const S st = detail::decode_state<S>(key);
          const auto note = [&](std::string message) {
            if (message.empty()) return false;
            if (!out.has_violation || key < out.violation_key) {
              out.has_violation = true;
              out.violation_key = key;
              out.violation = std::move(message);
            }
            return true;
          };
          if (note(model.check_state(st))) continue;
          degree = 0;
          if constexpr (kCollectGraph) out.edge_codes.clear();
          generate(st, sink, degree);
          out.transitions += degree;
          if (invalid) {
            invalid = false;
            note("model error: successor code exceeds the declared code_bits "
                 "width | from " +
                 model.describe(st));
            continue;
          }
          if constexpr (kCollectGraph) out.log.append(key, out.edge_codes);
        }
      }
    }
  };

  // Small levels still fan out (chunks of kMinChunk) so the parallel path
  // is exercised — and TSan-checkable — even on tiny models.
  constexpr std::size_t kMinChunk = 16;

  // The level step: all the work between two levels, on one thread. It is
  // the barrier's completion step, so every worker waits while it runs;
  // the caller also runs it once before any worker starts, to open level
  // 0. It closes the level just expanded (totals, metrics, span, the least
  // violation), then opens the next: the codes each worker found, joined
  // in worker order and carved into chunks, so one worker expands every
  // level in the order its codes were found. An empty next level, a
  // violation or the budget stops the check instead.
  const auto level_step = [&]() noexcept {
    std::size_t found = 0;
    for (const detail::Worker& out : outs) found += out.found.size();
    // The level and the codes found from it are resident together.
    result.frontier_peak_bytes = std::max<std::uint64_t>(
        result.frontier_peak_bytes,
        sizeof(std::uint32_t) * (level_size + found));
    if (level_size != 0) {
      result.states += level_size;
      std::uint64_t level_transitions = 0;
      const detail::Worker* worst = nullptr;
      for (detail::Worker& out : outs) {
        level_transitions += out.transitions;
        out.transitions = 0;
        if (out.has_violation &&
            (worst == nullptr || out.violation_key < worst->violation_key)) {
          worst = &out;
        }
      }
      result.transitions += level_transitions;
      const double level_seconds =
          std::chrono::duration<double>(Clock::now() - level_start).count();
      if (mscope != nullptr) {
        mscope->add(m_levels);
        mscope->add(m_states, level_size);
        mscope->add(m_transitions, level_transitions);
        mscope->observe(
            m_level_rate,
            level_seconds > 0.0
                ? static_cast<std::uint64_t>(
                      static_cast<double>(level_size) / level_seconds)
                : 0);
      }
      if (options.spans != nullptr) {
        options.spans->record(
            "level " + std::to_string(result.depth), /*track=*/0,
            std::chrono::duration<double, std::milli>(level_start - start)
                .count(),
            level_seconds * 1000.0, level_size);
      }
      if (worst != nullptr) {
        result.verdict = Verdict::kViolation;
        result.counterexample = worst->violation;
        stop = true;
        return;
      }
      if (found != 0) ++result.depth;
    }
    if (found == 0) {
      stop = true;
      return;
    }
    if (result.states + found > options.max_states) {
      result.verdict = Verdict::kBudgetExceeded;
      result.counterexample = "state budget exceeded after " +
                              std::to_string(result.states) + " states";
      stop = true;
      return;
    }
    const std::size_t chunk_codes = std::clamp<std::size_t>(
        found / (static_cast<std::size_t>(workers) * 8), kMinChunk, 2048);
    chunks.clear();
    for (detail::Worker& out : outs) {
      std::swap(out.level, out.found);
      out.found.clear();
      out.next_chunk.store(chunks.size(), std::memory_order_relaxed);
      out.level.for_each_block([&](std::span<const std::uint32_t> block) {
        for (std::size_t i = 0; i < block.size(); i += chunk_codes) {
          chunks.push_back(
              block.subspan(i, std::min(chunk_codes, block.size() - i)));
        }
      });
      out.chunks_end = chunks.size();
    }
    level_size = found;
    level_start = Clock::now();
  };

  // Persistent worker pool, the caller as worker 0: each thread expands
  // the level, then waits at the barrier, whose completion opens the next
  // one. A level costs one barrier phase.
  std::barrier barrier(workers, level_step);
  const auto work = [&](std::size_t me) {
    // Per-thread metrics shard: barrier wait time (the parallel-efficiency
    // signal — time a finished worker spends parked while stragglers
    // expand and the level step runs).
    std::unique_ptr<obs::Scope> wscope;
    if (metrics != nullptr) wscope = std::make_unique<obs::Scope>(*metrics);
    while (!stop) {
      expand(me);
      const auto parked =
          wscope != nullptr ? Clock::now() : Clock::time_point{};
      barrier.arrive_and_wait();
      if (wscope != nullptr) {
        wscope->observe(
            m_barrier,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - parked)
                    .count()));
      }
    }
  };

  level_step();  // open level 0
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (std::size_t w = 1; w < outs.size(); ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();

  std::uint64_t graph_bytes = 0;
  if constexpr (kCollectGraph) {
    if (result.ok()) {  // the space was covered
      const auto analyze_start = Clock::now();
      const ReachView<S> graph = detail::build_reach_view<S>(outs);
      graph_bytes = graph.bytes();
      std::string witness = model.analyze(graph);
      if (!witness.empty()) {
        result.verdict = Verdict::kViolation;
        result.counterexample = std::move(witness);
      }
      if (options.spans != nullptr) {
        options.spans->record(
            "analyze", /*track=*/0,
            std::chrono::duration<double, std::milli>(analyze_start - start)
                .count(),
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      analyze_start)
                .count(),
            graph.node_count());
      }
    } else {
      // Early stop (violation / budget): the CSR is never assembled, but
      // the per-worker edge logs were collected up to the stopping level —
      // report the footprint actually held rather than a misleading zero.
      for (const detail::Worker& w : outs) {
        graph_bytes += w.log.bytes();
      }
    }
  }

  seal(graph_bytes);
  return result;
}

}  // namespace wfd::mc
