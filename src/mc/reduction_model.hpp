// Explicit-state model of the reduction (Alg. 1 + Alg. 2) against an
// *abstract, fully nondeterministic* WF-<>WX dining box. Where the
// simulator samples runs, the checker enumerates every interleaving of a
// small, faithful abstraction — the right tool for a paper whose entire
// contribution is a proof (and whose venue history includes a corrigendum:
// at least one step was subtler than it looked).
//
// Abstraction, one ordered pair (p, q):
//  * four diner threads w_0, w_1 (witness) and s_0, s_1 (subject), each in
//    {thinking, hungry, eating, exiting};
//  * the protocol variables of Alg. 1/2: switch, haveping_{0,1};
//    trigger, ping_{0,1};
//  * ping/ack channels as bounded counters (bound 1 — Lemma 5 says at most
//    one message is ever outstanding per instance; exceeding the bound is
//    itself a reportable violation);
//  * the box grants hungry -> eating completely nondeterministically,
//    constrained only by the mode: kArbitrary (mistake prefix: anything
//    goes) or kExclusive (converged suffix: no new grant while the peer
//    eats — a crashed peer frozen mid-meal does not block, matching
//    wait-freedom);
//  * optionally, a nondeterministic subject crash that freezes s_0/s_1.
//
// `McOptions::pairs = 2` composes two independent ordered pairs side by
// side in one packed state and explores every interleaving of the product.
// Pairs share no variables, so the two-pair space is, by construction, the
// one-pair space squared (516,961 = 719², ..., 8,340,544 = 2,888²), and a
// two-pair check can fail only if a one-pair check does: it exercises the
// engine at scale, and shows nothing about composition. (In the live
// extraction the N(N-1) pairs do interact: they share processes, scheduler
// steps and crashes.)
//
// Checked on every reachable state (per pair):
//  * Lemma 2:  s_i not eating  =>  ping_i = true
//  * Lemma 3:  (s_i not eating and ping_i)  =>  both channels empty
//  * Lemma 4:  s_i hungry  =>  trigger = i
//  * Lemma 9:  some witness thread is thinking
//  * Lemma 5 (bound): never a second in-flight ping/ack per instance
//  * Theorem 2 (inductive step, kExclusive runs): once both instances have
//    completed a pinged witness meal, every witness meal judges "trust" —
//    i.e. no wrongful suspicion recurs after warm-up while q is live
//  * deadlock-freedom (kExclusive, no crash): every reachable state has a
//    successor
//  * Theorem 1 (structural): once q is crashed and the channels have
//    drained, no transition can set haveping — suspicion is permanent.
//
// Pairs share no variables, so the per-pair relation and per-pair checks
// are computed once, into a PairTable built by the model's constructor.
// A state holds one table index per pair (10-12 bits, where the raw pair
// block is 26), so a two-pair code is 20-24 bits wide and the engine's
// seen-set can be a bitmap over every code — SPIN's collapse compression,
// with the PairTable as the component table. The per-state hooks compose
// their answers from the table per pair index; only diagnostics decode a
// block. That includes the checks over a state's successors: a product
// state deadlocks iff every pair's row is empty (and no pair has crashed),
// and Theorem 1 fails iff some pair's own successors break it (the other
// pairs' moves leave its block alone), so both are table facts per block
// and check_state reads them like the lemma invariants.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "mc/model.hpp"

namespace wfd::mc {

enum class BoxMode : std::uint8_t {
  kArbitrary,  ///< mistake prefix: the box may overlap meals at will
  kExclusive,  ///< converged suffix: no new grant while the peer eats
};

struct McOptions {
  BoxMode mode = BoxMode::kExclusive;
  /// Explore a nondeterministic crash of the subject process (freezes both
  /// subject threads at any point).
  bool allow_crash = false;
  /// Check the Theorem 2 warm-up/accuracy step (meaningful in kExclusive
  /// mode without crash).
  bool check_accuracy = true;
  /// Check deadlock-freedom (meaningful without crash).
  bool check_deadlock = true;
  /// Independent ordered pairs composed in one state (1 or 2).
  int pairs = 1;
};

/// One pair's transition relation and checks, computed once: every 26-bit
/// pair block reachable from the initial block or from its flip, numbered
/// in BFS order (index 0 is the initial block). The set is closed under
/// successors and under the flip (the flip is an automorphism, so it maps
/// the blocks reachable from one root onto those reachable from the other).
/// Per index the table holds its successor indices in pair_successor_bits
/// order (CSR), the index of its flip, and one byte of facts
/// (pair_bits_facts) the model's hooks read instead of decoding the block.
/// Lookup from a block is open addressing in a power-of-two table at least
/// twice the block count; the hooks never need it, only construction and
/// tests do. Immutable after construction, so concurrent workers read it
/// without a lock.
class PairTable {
 public:
  static constexpr std::uint32_t kMissing = ~std::uint32_t{0};

  /// The facts byte of one block.
  enum Fact : std::uint8_t {
    kClean = 1 << 0,     ///< pair_bits_clean: the per-pair checks pass
    kCrashed = 1 << 1,   ///< the subject has crashed
    kStuck = 1 << 2,     ///< no successor: the block's row is empty
    kTheorem1 = 1 << 3,  ///< Theorem 1 fails here: crashed with both ping
                         ///< channels empty, and a successor sets a
                         ///< haveping bit that is clear in the block
  };

  explicit PairTable(const McOptions& options);

  /// Index of `block`, or kMissing when the block is not in the table.
  std::uint32_t find(std::uint64_t block) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = (block * kMultiplier) >> shift_;; s = (s + 1) & mask) {
      const std::uint64_t slot = slots_[s];
      if ((slot & 0xffffffffu) == block) {
        return static_cast<std::uint32_t>(slot >> 32);
      }
      if (slot == kEmptySlot) return kMissing;
    }
  }

  std::size_t size() const { return blocks_.size(); }
  /// Bits one index takes in a packed state: bit_width(size() - 1).
  int index_bits() const { return index_bits_; }
  std::uint64_t block(std::uint32_t index) const { return blocks_[index]; }
  std::span<const std::uint32_t> successors(std::uint32_t index) const {
    return {succ_.data() + offsets_[index],
            succ_.data() + offsets_[index + 1]};
  }
  /// find(flip_pair_bits(block(index))), precomputed.
  std::uint32_t flip(std::uint32_t index) const { return flip_[index]; }
  std::uint8_t facts(std::uint32_t index) const { return facts_[index]; }

 private:
  static constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ull;
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

  void rehash(std::size_t slots);  // power of two
  void place(std::uint32_t index, std::uint64_t block);

  std::vector<std::uint32_t> blocks_;
  std::vector<std::uint32_t> offsets_;  // size() + 1 entries into succ_
  std::vector<std::uint32_t> succ_;
  std::vector<std::uint32_t> flip_;
  std::vector<std::uint8_t> facts_;
  std::vector<std::uint64_t> slots_;  // (index << 32) | block, or empty
  int shift_ = 0;                     // 64 - log2(slots_.size())
  int index_bits_ = 1;
};

/// mc::Model implementation of the reduction abstraction; drive it through
/// mc::run_check (or the check_reduction convenience wrapper).
class ReductionModel {
 public:
  struct State {
    std::uint64_t bits = 0;  ///< one PairTable index per pair, pair 0 lowest
  };

  /// Builds the PairTable: a BFS of the one-pair relation (a few thousand
  /// blocks at most, well under a millisecond).
  explicit ReductionModel(const McOptions& options);

  std::vector<State> initial_states() const;
  /// emit(to, kLabelNone) per successor: pair 0's moves, then pair 1's.
  template <class Emit>
  void successors(const State& state, Emit&& emit) const {
    for (int k = 0; k < options_.pairs; ++k) emit_pair(state, k, emit);
  }
  /// The lemma invariants and Theorem 2 (kClean), deadlock (every pair
  /// kStuck, none kCrashed, under check_deadlock) and Theorem 1
  /// (kTheorem1), all read from the pairs' facts bytes; the report itself
  /// is built out of line (check_pair_blocks) only when one fails.
  std::string check_state(const State& state) const {
    unsigned all = ~0u;  // facts every pair has
    unsigned any = 0;    // facts some pair has
    for (int k = 0; k < options_.pairs; ++k) {
      const unsigned facts = table_.facts(index_of(state, k));
      all &= facts;
      any |= facts;
    }
    const bool deadlock = options_.check_deadlock &&
                          (all & PairTable::kStuck) != 0 &&
                          (any & PairTable::kCrashed) == 0;
    if ((all & PairTable::kClean) != 0 &&
        (any & PairTable::kTheorem1) == 0 && !deadlock) {
      return {};
    }
    return report(state);
  }
  std::string describe(const State& state) const;

  /// Model: significant low bits of the packed key (one table index
  /// per pair: 20-24 bits for two pairs).
  int code_bits() const;

  /// SymmetricModel: least representative of `state`'s orbit. The renaming
  /// group is generated by the per-pair instance flip (exchange the 0/1
  /// roles of one pair — swaps the w/s/haveping/ping/channel/warmed slots
  /// and inverts switch and trigger; an automorphism of the pair transition
  /// relation, machine-checked in tests) and, at kSymmetry with pairs == 2,
  /// the pair swap. kSymmetryPor keeps only the flips: permuting whole
  /// pairs would reorder the POR component sequence.
  State canonical(const State& state, Reduction level) const;

  /// PorModel: one independent component per pair (pair k's transitions
  /// read and write only pair k's index; the crash move is per-pair too).
  /// Quiescent = the pair sits at index 0, its local initial block. Every
  /// checked property is a fact of the reached state, read from its pairs'
  /// table facts (the lemma invariants, Theorem 2 and Theorem 1 quantify
  /// over one pair at a time, deadlock over all pairs' full rows), never
  /// from the reduced edge set, so the stutter gate holds.
  int por_components() const;
  template <class Emit>
  void component_successors(const State& state, int k, Emit&& emit) const {
    emit_pair(state, k, emit);
  }
  bool component_quiescent(const State& state, int k) const;
  bool por_stutter_invariant() const;

  /// The state whose pair k sits at the 26-bit block blocks[k] (one block
  /// per pair), and back. A block outside the pair table has no code:
  /// state_of throws std::invalid_argument for it.
  State state_of(std::initializer_list<std::uint64_t> blocks) const;
  std::uint64_t block_of(const State& state, int k) const;

  /// The cached per-pair relation every hook above reads.
  const PairTable& pair_table() const { return table_; }

 private:
  /// Pair k's table index in `state`.
  std::uint32_t index_of(const State& state, int k) const {
    const auto index = static_cast<std::uint32_t>(
        (state.bits >> (k * index_bits_)) & index_mask_);
    assert(index < table_.size() && "a state codes an index past the table");
    return index;
  }
  /// Emit `state`'s successors that move pair k.
  template <class Emit>
  void emit_pair(const State& state, int k, Emit& emit) const {
    const int shift = k * index_bits_;
    const std::uint64_t rest = state.bits & ~(index_mask_ << shift);
    for (const std::uint32_t next : table_.successors(index_of(state, k))) {
      emit(State{rest | (std::uint64_t{next} << shift)}, kLabelNone);
    }
  }
  /// check_state's slow path: which check failed, and where.
  std::string report(const State& state) const;

  McOptions options_;
  PairTable table_;
  int index_bits_;
  std::uint64_t index_mask_;
};

/// The per-pair instance flip on one 26-bit pair block (exposed for the
/// automorphism test; the PairTable precomputes it per index for
/// canonical()).
std::uint64_t flip_pair_bits(std::uint64_t pair_bits);

/// The direct, uncached computations PairTable caches (exposed for the
/// table test): the successor blocks of one 26-bit pair block in emission
/// order, and whether the block passes check_state's per-pair checks (the
/// lemma invariants, plus the Theorem 2 step under check_accuracy).
std::vector<std::uint64_t> pair_successor_bits(const McOptions& options,
                                               std::uint64_t pair_bits);
bool pair_bits_clean(const McOptions& options, std::uint64_t pair_bits);

/// The facts byte of one 26-bit pair block whose successor blocks are
/// `successors` — what the PairTable build stores per row, given the row's
/// own successors; tests may hand it any. kClean is pair_bits_clean.
std::uint8_t pair_bits_facts(const McOptions& options, std::uint64_t pair_bits,
                             std::span<const std::uint64_t> successors);

/// check_state's report for pairs at `blocks` (one per pair) with facts
/// bytes `facts`: the first pair's failed lemma or Theorem 2 check, else
/// "deadlock: ..." when every pair is stuck and none crashed (under
/// check_deadlock), else the first pair that breaks Theorem 1; empty when
/// none applies.
std::string check_pair_blocks(const McOptions& options,
                              std::span<const std::uint64_t> blocks,
                              std::span<const std::uint8_t> facts);

/// Exhaustively explore the reduction model via mc::run_check.
CheckResult check_reduction(const McOptions& options,
                            const CheckOptions& check = {});

/// Render one pair's packed 26-bit state for diagnostics.
std::string describe_state(std::uint64_t packed);

}  // namespace wfd::mc
