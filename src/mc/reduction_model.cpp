#include "mc/reduction_model.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "mc/engine.hpp"

namespace wfd::mc {
namespace {

// --- per-pair state packing -------------------------------------------------
// Thread states: 0 thinking, 1 hungry, 2 eating, 3 exiting.
enum : std::uint64_t { kT = 0, kH = 1, kE = 2, kX = 3 };

constexpr int kPairBits = 26;
constexpr std::uint64_t kPairMask = (1ull << kPairBits) - 1;

/// One ordered pair's 26-bit block (a PairTable entry; states hold indices).
struct Pair {
  std::uint64_t bits = 0;

  static constexpr int kW0 = 0;      // 2 bits
  static constexpr int kW1 = 2;      // 2 bits
  static constexpr int kS0 = 4;      // 2 bits
  static constexpr int kS1 = 6;      // 2 bits
  static constexpr int kSwitch = 8;  // 1 bit
  static constexpr int kHavePing = 9;   // 2 bits (per instance)
  static constexpr int kTrigger = 11;   // 1 bit
  static constexpr int kPingFlag = 12;  // 2 bits (per instance)
  static constexpr int kPingChan = 14;  // 2 x 2 bits
  static constexpr int kAckChan = 18;   // 2 x 2 bits
  static constexpr int kWarmed = 22;    // 2 bits
  static constexpr int kSomeAte = 24;   // 1 bit
  static constexpr int kCrashed = 25;   // 1 bit

  std::uint64_t get(int shift, std::uint64_t mask) const {
    return (bits >> shift) & mask;
  }
  void set(int shift, std::uint64_t mask, std::uint64_t value) {
    bits = (bits & ~(mask << shift)) | ((value & mask) << shift);
  }

  std::uint64_t w(int i) const { return get(i == 0 ? kW0 : kW1, 3); }
  void set_w(int i, std::uint64_t v) { set(i == 0 ? kW0 : kW1, 3, v); }
  std::uint64_t s(int i) const { return get(i == 0 ? kS0 : kS1, 3); }
  void set_s(int i, std::uint64_t v) { set(i == 0 ? kS0 : kS1, 3, v); }
  int sw() const { return static_cast<int>(get(kSwitch, 1)); }
  void set_sw(int v) { set(kSwitch, 1, static_cast<std::uint64_t>(v)); }
  bool haveping(int i) const { return get(kHavePing + i, 1) != 0; }
  void set_haveping(int i, bool v) { set(kHavePing + i, 1, v ? 1 : 0); }
  int trigger() const { return static_cast<int>(get(kTrigger, 1)); }
  void set_trigger(int v) { set(kTrigger, 1, static_cast<std::uint64_t>(v)); }
  bool ping_flag(int i) const { return get(kPingFlag + i, 1) != 0; }
  void set_ping_flag(int i, bool v) { set(kPingFlag + i, 1, v ? 1 : 0); }
  std::uint64_t ping_chan(int i) const { return get(kPingChan + 2 * i, 3); }
  void set_ping_chan(int i, std::uint64_t v) { set(kPingChan + 2 * i, 3, v); }
  std::uint64_t ack_chan(int i) const { return get(kAckChan + 2 * i, 3); }
  void set_ack_chan(int i, std::uint64_t v) { set(kAckChan + 2 * i, 3, v); }
  bool warmed(int i) const { return get(kWarmed + i, 1) != 0; }
  void set_warmed(int i, bool v) { set(kWarmed + i, 1, v ? 1 : 0); }
  bool some_ate() const { return get(kSomeAte, 1) != 0; }
  void set_some_ate(bool v) { set(kSomeAte, 1, v ? 1 : 0); }
  bool crashed() const { return get(kCrashed, 1) != 0; }
  void set_crashed(bool v) { set(kCrashed, 1, v ? 1 : 0); }
};

const char* thread_name(std::uint64_t v) {
  switch (v) {
    case kT: return "thinking";
    case kH: return "hungry";
    case kE: return "eating";
    case kX: return "exiting";
  }
  return "?";
}

std::string describe_pair(const Pair& st) {
  std::ostringstream out;
  out << "w0=" << thread_name(st.w(0)) << " w1=" << thread_name(st.w(1))
      << " s0=" << thread_name(st.s(0)) << " s1=" << thread_name(st.s(1))
      << " switch=" << st.sw() << " trigger=" << st.trigger()
      << " haveping=" << st.haveping(0) << st.haveping(1)
      << " ping=" << st.ping_flag(0) << st.ping_flag(1)
      << " chans=p" << st.ping_chan(0) << st.ping_chan(1) << "/a"
      << st.ack_chan(0) << st.ack_chan(1)
      << (st.crashed() ? " CRASHED" : "");
  return out.str();
}

/// A product state, one pair block per entry (describe's text).
std::string describe_blocks(std::span<const std::uint64_t> blocks) {
  if (blocks.size() == 1) return describe_pair(Pair{blocks[0]});
  std::string out;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    if (k > 0) out += "  ||  ";
    out += "pair" + std::to_string(k) + "[" + describe_pair(Pair{blocks[k]}) +
           "]";
  }
  return out;
}

/// Safety-lemma check for one pair; empty string when fine.
std::string check_pair_invariants(const Pair& st) {
  for (int i = 0; i < 2; ++i) {
    // Lemma 2: (s_i != eating) => ping_i
    if (st.s(i) != kE && !st.ping_flag(i) && !st.crashed()) {
      return "Lemma 2 violated: subject s_" + std::to_string(i) +
             " not eating but ping flag is false";
    }
    // Lemma 3: (s_i != eating && ping_i) => channels empty
    if (st.s(i) != kE && st.ping_flag(i) &&
        (st.ping_chan(i) != 0 || st.ack_chan(i) != 0)) {
      return "Lemma 3 violated: message in transit while s_" +
             std::to_string(i) + " not eating and ping_i true";
    }
    // Lemma 4: s_i hungry => trigger == i
    if (st.s(i) == kH && st.trigger() != i && !st.crashed()) {
      return "Lemma 4 violated: s_" + std::to_string(i) +
             " hungry with trigger=" + std::to_string(st.trigger());
    }
    // Lemma 5 bound: never more than one in-flight message per channel.
    if (st.ping_chan(i) > 1 || st.ack_chan(i) > 1) {
      return "Lemma 5 violated: channel bound exceeded on instance " +
             std::to_string(i);
    }
  }
  // Lemma 9: some witness is thinking.
  if (st.w(0) != kT && st.w(1) != kT) {
    return "Lemma 9 violated: no witness thread thinking";
  }
  // Lemma 8 (suffix invariant): once a subject has eaten, some subject is
  // always eating.
  if (st.some_ate() && st.s(0) != kE && st.s(1) != kE) {
    return "Lemma 8 violated: no subject eating after first meal";
  }
  return {};
}

/// check_state's verdict on one pair: the lemma invariants, then the
/// Theorem 2 inductive step — a warmed-up witness meal over a live subject
/// always holds a ping at judgment time.
std::string check_pair(const McOptions& options, const Pair& st) {
  std::string bad = check_pair_invariants(st);
  if (bad.empty() && options.check_accuracy && !st.crashed() &&
      st.warmed(0) && st.warmed(1)) {
    for (int i = 0; i < 2 && bad.empty(); ++i) {
      if (st.w(i) == kE && !st.haveping(i)) {
        bad = "Theorem 2 violated: wrongful suspicion after warm-up in "
              "instance " +
              std::to_string(i);
      }
    }
  }
  return bad;
}

/// Enabled moves of one pair; `emit` receives each successor pair state.
template <class Emit>
void pair_successors(const McOptions& options, const Pair& st, Emit&& emit) {
  const bool exclusive = options.mode == BoxMode::kExclusive;

  for (int i = 0; i < 2; ++i) {
    const int j = 1 - i;

    // W_h: both witnesses thinking, it's thread i's turn.
    if (st.w(i) == kT && st.w(j) == kT && st.sw() == i) {
      Pair n = st;
      n.set_w(i, kH);
      emit(n);
    }
    // Box grants the witness (nondeterministic; in exclusive mode only
    // while the peer subject is not eating — a crashed subject frozen
    // mid-meal does not block, per wait-freedom).
    if (st.w(i) == kH && (!exclusive || st.s(i) != kE || st.crashed())) {
      Pair n = st;
      n.set_w(i, kE);
      emit(n);
    }
    // W_x: judge and exit. (The Theorem 2 accuracy condition over this
    // judgment is state-local and checked in check_state.)
    if (st.w(i) == kE) {
      Pair n = st;
      if (st.haveping(i)) n.set_warmed(i, true);
      n.set_haveping(i, false);
      n.set_sw(j);
      n.set_w(i, kX);
      emit(n);
    }
    // Witness exiting completes.
    if (st.w(i) == kX) {
      Pair n = st;
      n.set_w(i, kT);
      emit(n);
    }

    if (!st.crashed()) {
      // S_h: scheduled by trigger.
      if (st.s(i) == kT && st.trigger() == i) {
        Pair n = st;
        n.set_s(i, kH);
        emit(n);
      }
      // Box grants the subject.
      if (st.s(i) == kH && (!exclusive || st.w(i) != kE)) {
        Pair n = st;
        n.set_s(i, kE);
        n.set_some_ate(true);
        emit(n);
      }
      // S_p: ping the witness.
      if (st.s(i) == kE && st.s(j) != kE && st.ping_flag(i)) {
        Pair n = st;
        n.set_ping_flag(i, false);
        n.set_ping_chan(i, st.ping_chan(i) + 1);
        emit(n);
      }
      // S_x: hand-off complete, exit.
      if (st.s(i) == kE && st.s(j) == kE && st.trigger() == j) {
        Pair n = st;
        n.set_ping_flag(i, true);
        n.set_s(i, kX);
        emit(n);
      }
      // Subject exiting completes.
      if (st.s(i) == kX) {
        Pair n = st;
        n.set_s(i, kT);
        emit(n);
      }
      // Ack delivery (S_a).
      if (st.ack_chan(i) > 0) {
        Pair n = st;
        n.set_ack_chan(i, st.ack_chan(i) - 1);
        n.set_trigger(j);
        emit(n);
      }
    } else {
      // Acks to a crashed process vanish at delivery time.
      if (st.ack_chan(i) > 0) {
        Pair n = st;
        n.set_ack_chan(i, st.ack_chan(i) - 1);
        emit(n);
      }
    }

    // Ping delivery (W_p): the witness is correct; receive + ack is one
    // atomic action in Alg. 1.
    if (st.ping_chan(i) > 0) {
      Pair n = st;
      n.set_ping_chan(i, st.ping_chan(i) - 1);
      n.set_haveping(i, true);
      n.set_ack_chan(i, st.ack_chan(i) + 1);
      emit(n);
    }
  }

  // Nondeterministic subject crash.
  if (options.allow_crash && !st.crashed()) {
    Pair n = st;
    n.set_crashed(true);
    emit(n);
  }
}

/// The pair block every pair starts from: all threads thinking, switch and
/// trigger 0, both ping flags set.
constexpr std::uint64_t kInitialPairBits =
    (1ull << Pair::kPingFlag) | (1ull << (Pair::kPingFlag + 1));

/// Exchange two bit fields of width `w` at shifts `a` and `b`.
constexpr std::uint64_t swap_bits(std::uint64_t x, int a, int b, int w) {
  const std::uint64_t mask = (1ull << w) - 1;
  const std::uint64_t diff = ((x >> a) ^ (x >> b)) & mask;
  return x ^ ((diff << a) | (diff << b));
}

}  // namespace

std::uint64_t flip_pair_bits(std::uint64_t p) {
  p = swap_bits(p, Pair::kW0, Pair::kW1, 2);
  p = swap_bits(p, Pair::kS0, Pair::kS1, 2);
  p = swap_bits(p, Pair::kHavePing, Pair::kHavePing + 1, 1);
  p = swap_bits(p, Pair::kPingFlag, Pair::kPingFlag + 1, 1);
  p = swap_bits(p, Pair::kPingChan, Pair::kPingChan + 2, 2);
  p = swap_bits(p, Pair::kAckChan, Pair::kAckChan + 2, 2);
  p = swap_bits(p, Pair::kWarmed, Pair::kWarmed + 1, 1);
  // The flip renames instance 0 <-> 1, so the "whose turn" bits invert.
  return p ^ ((1ull << Pair::kSwitch) | (1ull << Pair::kTrigger));
}

std::vector<std::uint64_t> pair_successor_bits(const McOptions& options,
                                               std::uint64_t pair_bits) {
  std::vector<std::uint64_t> out;
  pair_successors(options, Pair{pair_bits & kPairMask},
                  [&](const Pair& next) { out.push_back(next.bits); });
  return out;
}

bool pair_bits_clean(const McOptions& options, std::uint64_t pair_bits) {
  return check_pair(options, Pair{pair_bits & kPairMask}).empty();
}

std::uint8_t pair_bits_facts(const McOptions& options, std::uint64_t pair_bits,
                             std::span<const std::uint64_t> successors) {
  const Pair st{pair_bits & kPairMask};
  std::uint8_t facts = check_pair(options, st).empty() ? PairTable::kClean : 0;
  if (st.crashed()) facts |= PairTable::kCrashed;
  if (successors.empty()) facts |= PairTable::kStuck;
  // Theorem 1: once crashed with both ping channels drained, nothing may
  // set haveping again.
  if (st.crashed() && st.ping_chan(0) == 0 && st.ping_chan(1) == 0) {
    const std::uint64_t clear = ~st.get(Pair::kHavePing, 3) & 3;
    for (const std::uint64_t next : successors) {
      if ((Pair{next & kPairMask}.get(Pair::kHavePing, 3) & clear) != 0) {
        facts |= PairTable::kTheorem1;
        break;
      }
    }
  }
  return facts;
}

std::string check_pair_blocks(const McOptions& options,
                              std::span<const std::uint64_t> blocks,
                              std::span<const std::uint8_t> facts) {
  assert(blocks.size() == facts.size());
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    if (facts[k] & PairTable::kClean) continue;
    const Pair st{blocks[k] & kPairMask};
    return check_pair(options, st) + " | pair " + std::to_string(k) + ": " +
           describe_pair(st);
  }
  bool deadlock = options.check_deadlock;
  for (const std::uint8_t f : facts) {
    deadlock =
        deadlock && (f & PairTable::kStuck) && !(f & PairTable::kCrashed);
  }
  if (deadlock) return "deadlock: " + describe_blocks(blocks);
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    if (facts[k] & PairTable::kTheorem1) {
      return "Theorem 1 violated: haveping set after crash with empty "
             "channels | pair " +
             std::to_string(k) + ": " + describe_pair(Pair{blocks[k]});
    }
  }
  return {};
}

PairTable::PairTable(const McOptions& options) {
  // BFS over the one-pair relation; blocks_ doubles as the queue, so each
  // block's successors are appended in index order and form its CSR row.
  // The lookup table doubles before it would pass half full.
  rehash(64);
  const auto visit = [&](std::uint64_t block) {
    const std::uint32_t known = find(block);
    if (known != kMissing) return known;
    if (2 * (blocks_.size() + 1) > slots_.size()) rehash(2 * slots_.size());
    const auto index = static_cast<std::uint32_t>(blocks_.size());
    place(index, block);
    blocks_.push_back(static_cast<std::uint32_t>(block));
    return index;
  };
  visit(kInitialPairBits);  // index 0
  visit(flip_pair_bits(kInitialPairBits));
  offsets_.push_back(0);
  std::vector<std::uint64_t> next;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const std::uint64_t block = blocks_[i];
    next.clear();
    pair_successors(options, Pair{block},
                    [&](const Pair& to) { next.push_back(to.bits); });
    for (const std::uint64_t to : next) succ_.push_back(visit(to));
    offsets_.push_back(static_cast<std::uint32_t>(succ_.size()));
    facts_.push_back(pair_bits_facts(options, block, next));
  }
  for (const std::uint32_t block : blocks_) {
    flip_.push_back(find(flip_pair_bits(block)));
    assert(flip_.back() != kMissing && "the table is closed under the flip");
  }
  // The initial block and its flip differ (switch and trigger invert), so
  // size() >= 2 and an index takes at least one bit.
  index_bits_ = static_cast<int>(std::bit_width(size() - 1));
}

void PairTable::rehash(std::size_t slots) {
  shift_ = 64 - std::countr_zero(slots);
  slots_.assign(slots, kEmptySlot);
  for (std::uint32_t i = 0; i < blocks_.size(); ++i) place(i, blocks_[i]);
}

void PairTable::place(std::uint32_t index, std::uint64_t block) {
  std::size_t s = (block * kMultiplier) >> shift_;
  while (slots_[s] != kEmptySlot) s = (s + 1) & (slots_.size() - 1);
  slots_[s] = (std::uint64_t{index} << 32) | block;
}

ReductionModel::ReductionModel(const McOptions& options)
    : options_(options),
      table_(options),
      index_bits_(table_.index_bits()),
      index_mask_(code_mask(index_bits_)) {
  if (options_.pairs < 1) options_.pairs = 1;
  if (options_.pairs > 2) options_.pairs = 2;  // canonical() swaps two pairs
}

std::vector<ReductionModel::State> ReductionModel::initial_states() const {
  return {State{0}};  // every pair at index 0, its initial block
}

std::string ReductionModel::report(const State& state) const {
  std::uint64_t blocks[2] = {0, 0};
  std::uint8_t facts[2] = {0, 0};
  const auto pairs = static_cast<std::size_t>(options_.pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    const std::uint32_t index = index_of(state, static_cast<int>(k));
    blocks[k] = table_.block(index);
    facts[k] = table_.facts(index);
  }
  return check_pair_blocks(options_, {blocks, pairs}, {facts, pairs});
}

int ReductionModel::code_bits() const { return index_bits_ * options_.pairs; }

ReductionModel::State ReductionModel::canonical(const State& state,
                                                Reduction level) const {
  if (!reduction_has_symmetry(level)) return state;
  std::uint64_t canon[2] = {0, 0};
  for (int k = 0; k < options_.pairs; ++k) {
    const std::uint32_t index = index_of(state, k);
    canon[k] = std::min(index, table_.flip(index));
  }
  if (options_.pairs == 1) return {canon[0]};
  if (level == Reduction::kSymmetry) {
    // Full group: flips x pair swap. Flips act per slot, so the least
    // packed word is the least arrangement of the per-pair flip minima.
    return {std::min(canon[0] | (canon[1] << index_bits_),
                     canon[1] | (canon[0] << index_bits_))};
  }
  return {canon[0] | (canon[1] << index_bits_)};  // kSymmetryPor: flips only
}

int ReductionModel::por_components() const { return options_.pairs; }

bool ReductionModel::component_quiescent(const State& state, int k) const {
  return index_of(state, k) == 0;
}

bool ReductionModel::por_stutter_invariant() const { return true; }

ReductionModel::State ReductionModel::state_of(
    std::initializer_list<std::uint64_t> blocks) const {
  if (blocks.size() != static_cast<std::size_t>(options_.pairs)) {
    throw std::invalid_argument("state_of: one block per pair");
  }
  State state{};
  int shift = 0;
  for (const std::uint64_t block : blocks) {
    const std::uint32_t index = table_.find(block);
    if (index == PairTable::kMissing) {
      throw std::invalid_argument("state_of: block outside the pair table: " +
                                  describe_state(block));
    }
    state.bits |= std::uint64_t{index} << shift;
    shift += index_bits_;
  }
  return state;
}

std::uint64_t ReductionModel::block_of(const State& state, int k) const {
  return table_.block(index_of(state, k));
}

std::string ReductionModel::describe(const State& state) const {
  std::uint64_t blocks[2] = {0, 0};
  const auto pairs = static_cast<std::size_t>(options_.pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    blocks[k] = block_of(state, static_cast<int>(k));
  }
  return describe_blocks({blocks, pairs});
}

static_assert(Model<ReductionModel>);
static_assert(SymmetricModel<ReductionModel>);
static_assert(PorModel<ReductionModel>);

std::string describe_state(std::uint64_t packed) {
  return describe_pair(Pair{packed & kPairMask});
}

CheckResult check_reduction(const McOptions& options,
                            const CheckOptions& check) {
  return run_check(ReductionModel(options), check);
}

}  // namespace wfd::mc
