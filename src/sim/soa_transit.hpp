// Struct-of-arrays transit store: the engine's one message store. ONE
// shared message pool and ONE two-level hierarchical calendar hold every
// message in flight, for all destinations.
//
// Why one shared store: per-destination queues cost a fixed block of
// bucket headers per process (a 256-tick calendar is ~6 KiB), so at
// n = 1e6 they are gigabytes of mostly-cold headers, and every push lands
// in a different destination's object — a cache and TLB miss per message.
// A destination that steps rarely (every ~n ticks under any fair
// scheduler) also keeps a stale per-queue clock, so at large n almost
// every push overflows its window into a sorted band. Here all hot state
// is per-field contiguous: deliver times, link words and message bodies
// are parallel arrays indexed by slot, and the calendar is shared, so its
// buckets stay resident no matter how many destinations exist.
//
// Layout (slot = index into the parallel arrays):
//
//   near wheel   2F tick buckets (F = kFarWidth), index = due mod 2F. Holds
//                every item due before `horizon_`. One bucket = exactly one
//                future tick, as an intrusive singly-linked list in push
//                (= seq) order.
//   far wheel    kFarCount blocks of F ticks each, index = (due / F) mod
//                kFarCount. Holds items due in [horizon_, far_end_).
//   outer band   items past far_end_, kept as slot ids sorted by
//                (due, seq) — the rare tail (multi-thousand-tick
//                retransmits, pre-GST partial synchrony).
//   ready lists  per-destination intrusive list of items already due but
//                not yet consumed (the destination steps later than the
//                tick, or deferred by one-per-sender step semantics), in
//                exact (deliver_at, seq) order.
//
// advance(now) must be called once per tick, for consecutive ticks. When
// `now` crosses a multiple of F it CASCADES: the far block starting at
// `horizon_` unrolls into near buckets, then the outer prefix newly covered
// by the far wheel sweeps into its (empty) top block. Then the near bucket
// of `now` SCATTERS onto the destinations' ready lists.
//
// Ordering argument (the engine's (deliver_at, seq) contract):
//   * within any bucket, append order is push order is seq order;
//   * a far block is promoted before any direct near push for its ticks can
//     exist (those route near only once `horizon_` has passed them, i.e.
//     after the cascade), and the promotion walks the block in seq order —
//     so each near bucket stays seq-sorted;
//   * the outer band sweeps into a far block exactly when that block's
//     range enters far coverage, before any direct far push for that range
//     (all later pushes carry larger seqs), and the sweep walks the sorted
//     prefix in (due, seq) order into an empty block;
//   * scatter appends each tick's items behind whatever older (deferred or
//     earlier-tick) items the ready list still holds.
// Hence drain_ready visits a destination's messages in exactly the order a
// (deliver_at, seq) min-heap with a deferred FIFO in front would — the
// reference model tests/test_soa_engine.cpp drives this store against —
// and engine traces stay byte-identical to the original heap engine
// (golden fingerprints in tests/test_determinism.cpp).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace wfd::sim {

/// A message waiting in a channel, due at `deliver_at`.
struct InTransit {
  Time deliver_at = 0;
  Message msg{};
};

class SoaTransit {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Far-block width in ticks (power of two). The near wheel spans two
  /// blocks so a cascade always lands in currently-unused near buckets.
  static constexpr std::uint32_t kFarBits = 10;
  static constexpr Time kFarWidth = Time{1} << kFarBits;      // 1024 ticks
  static constexpr std::size_t kNearSize = std::size_t{2} << kFarBits;
  static constexpr std::size_t kFarCount = 1024;  // far coverage: ~1M ticks

  SoaTransit() = default;  ///< empty; reset() sizes it
  explicit SoaTransit(std::size_t n) { reset(n); }

  void reset(std::size_t n) {
    ready_head_.assign(n, kNil);
    ready_tail_.assign(n, kNil);
    pending_.assign(n, 0);
    dead_.assign(n, 0);
    near_.assign(kNearSize, Bucket{});
    far_.assign(kFarCount, Bucket{});
    outer_.clear();
    outer_head_ = 0;
    msg_.clear();
    due_.clear();
    next_.clear();
    free_head_ = kNil;
    total_ = 0;
    horizon_ = 2 * kFarWidth;
    far_end_ = horizon_ + kFarWidth * static_cast<Time>(kFarCount);
  }

  /// Enqueue a message for `dst` due at `due` and return the slot to fill
  /// in place. Precondition: `due` is strictly past the last advance()d
  /// tick (the engine always pushes with due >= now + 1). The reference is
  /// valid until the next push().
  Message& push(Time due, ProcessId dst) {
    const std::uint32_t slot = alloc();
    due_[slot] = due;
    next_[slot] = kNil;
    ++pending_[dst];
    ++total_;
    if (due < horizon_) {
      append(near_[due & (kNearSize - 1)], slot);
    } else if (due < far_end_) {
      append(far_[(due >> kFarBits) & (kFarCount - 1)], slot);
    } else {
      insert_outer(slot, due);
    }
    return msg_[slot];
  }

  /// Advance the shared clock to `now` (exactly one tick past the previous
  /// call) and move everything due at `now` onto its destination's ready
  /// list. Items for destinations cleared by clear_dst() free silently —
  /// their counters were settled when the destination died.
  void advance(Time now) {
    if ((now & (kFarWidth - 1)) == 0) cascade(now);
    Bucket& bucket = near_[now & (kNearSize - 1)];
    std::uint32_t cur = bucket.head;
    bucket.head = bucket.tail = kNil;
    while (cur != kNil) {
      const std::uint32_t nxt = next_[cur];
      assert(due_[cur] == now);
      const ProcessId dst = msg_[cur].dst;
      if (dead_[dst]) {
        free_slot(cur);
      } else {
        next_[cur] = kNil;
        append_ready(dst, cur);
      }
      cur = nxt;
    }
  }

  bool has_ready(ProcessId dst) const { return ready_head_[dst] != kNil; }

  /// Visit `dst`'s due messages in exact (deliver_at, seq) order.
  /// `consume(item)` returns true to consume or false to defer the item in
  /// place (it stays, in order, for a later drain). `consume` may push()
  /// back into this store; the item it was passed is a copy and stays valid.
  template <class Consume>
  void drain_ready(ProcessId dst, Consume&& consume) {
    std::uint32_t prev = kNil;
    std::uint32_t cur = ready_head_[dst];
    while (cur != kNil) {
      const std::uint32_t nxt = next_[cur];
      // Copy out: consume may push() and grow the pool arrays.
      const InTransit item{due_[cur], msg_[cur]};
      if (consume(static_cast<const InTransit&>(item))) {
        if (prev == kNil) {
          ready_head_[dst] = nxt;
        } else {
          next_[prev] = nxt;
        }
        if (nxt == kNil) ready_tail_[dst] = prev;
        free_slot(cur);
        --pending_[dst];
        --total_;
      } else {
        prev = cur;
      }
      cur = nxt;
    }
  }

  /// Drop everything queued for `dst` (destination crashed) and return the
  /// number of messages discarded. Items still in the wheels are lazily
  /// freed at scatter time; their counts settle here so conservation
  /// arithmetic stays exact immediately.
  std::uint64_t clear_dst(ProcessId dst) {
    std::uint32_t cur = ready_head_[dst];
    while (cur != kNil) {
      const std::uint32_t nxt = next_[cur];
      free_slot(cur);
      cur = nxt;
    }
    ready_head_[dst] = kNil;
    ready_tail_[dst] = kNil;
    const std::uint64_t dropped = pending_[dst];
    total_ -= dropped;
    pending_[dst] = 0;
    dead_[dst] = 1;
    return dropped;
  }

  /// Messages currently queued for `dst` (ready + still in the wheels).
  std::uint64_t pending(ProcessId dst) const { return pending_[dst]; }
  /// Messages currently queued across all destinations.
  std::size_t size() const { return static_cast<std::size_t>(total_); }

 private:
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  void append(Bucket& bucket, std::uint32_t slot) {
    if (bucket.tail == kNil) {
      bucket.head = slot;
    } else {
      next_[bucket.tail] = slot;
    }
    bucket.tail = slot;
  }

  void append_ready(ProcessId dst, std::uint32_t slot) {
    if (ready_tail_[dst] == kNil) {
      ready_head_[dst] = slot;
    } else {
      next_[ready_tail_[dst]] = slot;
    }
    ready_tail_[dst] = slot;
  }

  /// Promote the far block starting at `horizon_` into the near wheel, then
  /// sweep the outer prefix the far wheel newly covers into its top block.
  void cascade([[maybe_unused]] Time now) {
    assert(horizon_ == now + kFarWidth);
    Bucket& block = far_[(horizon_ >> kFarBits) & (kFarCount - 1)];
    std::uint32_t cur = block.head;
    block.head = block.tail = kNil;
    while (cur != kNil) {
      const std::uint32_t nxt = next_[cur];
      next_[cur] = kNil;
      append(near_[due_[cur] & (kNearSize - 1)], slot_check(cur));
      cur = nxt;
    }
    horizon_ += kFarWidth;
    far_end_ += kFarWidth;
    while (outer_head_ < outer_.size() && due_[outer_[outer_head_]] < far_end_) {
      const std::uint32_t slot = outer_[outer_head_++];
      next_[slot] = kNil;
      append(far_[(due_[slot] >> kFarBits) & (kFarCount - 1)], slot);
    }
    if (outer_head_ != 0 && outer_head_ == outer_.size()) {
      outer_.clear();
      outer_head_ = 0;
    }
  }

  std::uint32_t slot_check(std::uint32_t slot) const {
    assert(slot < msg_.size());
    return slot;
  }

  void insert_outer(std::uint32_t slot, Time due) {
    // Every queued item carries a smaller seq, so among equal due times the
    // new item goes last: upper_bound on the due time alone lands there.
    const auto pos = std::upper_bound(
        outer_.begin() + static_cast<std::ptrdiff_t>(outer_head_),
        outer_.end(), due,
        [this](Time t, std::uint32_t s) { return t < due_[s]; });
    outer_.insert(pos, slot);
  }

  std::uint32_t alloc() {
    if (free_head_ != kNil) {
      const std::uint32_t slot = free_head_;
      free_head_ = next_[slot];
      return slot;
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(msg_.size());
    msg_.emplace_back();
    due_.push_back(0);
    next_.push_back(kNil);
    return slot;
  }

  void free_slot(std::uint32_t slot) {
    next_[slot] = free_head_;
    free_head_ = slot;
  }

  // --- slot pool (struct-of-arrays) ---------------------------------------
  std::vector<Message> msg_;
  std::vector<Time> due_;
  std::vector<std::uint32_t> next_;  ///< bucket/ready/free-list link word
  std::uint32_t free_head_ = kNil;

  // --- shared two-level calendar ------------------------------------------
  std::vector<Bucket> near_;          ///< kNearSize one-tick buckets
  std::vector<Bucket> far_;           ///< kFarCount F-tick blocks
  std::vector<std::uint32_t> outer_;  ///< past far_end_, sorted (due, seq)
  std::size_t outer_head_ = 0;
  Time horizon_ = 0;  ///< exclusive end of near coverage (multiple of F)
  Time far_end_ = 0;  ///< exclusive end of far coverage

  // --- per-destination state ----------------------------------------------
  std::vector<std::uint32_t> ready_head_;
  std::vector<std::uint32_t> ready_tail_;
  std::vector<std::uint64_t> pending_;
  std::vector<std::uint8_t> dead_;
  std::uint64_t total_ = 0;
};

}  // namespace wfd::sim
