// Seen-set implementations for the model-checking engine.
//
// Three lock-free membership sets share the same discipline (atomic inserts
// on the hot path, stop-the-world growth only at the engine's level
// barrier):
//
//  * SeenSet — the classic open-addressing table of raw 64-bit packed keys
//    (8 bytes/slot, <=50% load). Works for any model; the all-ones key is
//    reserved as the empty sentinel.
//  * CompactSeenSet — a bucketized table of 32-bit entries for models that
//    declare `code_bits()` <= 63. Codes are hashed with an odd-multiplier
//    bijection over [0, 2^code_bits); the top bits of the hash pick a
//    bucket (8 entries = one cache line) and the low bits are stored as the
//    entry's remainder, so membership is EXACT and every stored code can be
//    reconstructed (multiply by the modular inverse) when the table grows.
//    4 bytes/slot at a <=75% sizing target — on the 8.3M-state two-pair
//    space this is 64MB where the classic table needs 268MB. The rare
//    bucket-overflow falls back to a small mutex-guarded stash (set
//    semantics keep the exploration deterministic either way).
//  * BitmapSeenSet — one bit per code in [0, 2^code_bits): no hash, no
//    probe, never grows. 2^code_bits / 8 bytes whatever the fill, so it
//    wins on narrow codes (2 MiB at 24 bits, 8.3M states or not).
//
// SeenIndex applies one rule — the smallest representation for the model's
// code width at the target fill — at construction (target = the
// expected-states hint) and again at every growth (target = fill +
// projected inserts), moving the keys into the new representation when the
// rule names another one (classic -> compact -> bitmap, never back). Tables
// of 2MB or more are their own anonymous mappings, so a freed table's pages
// leave the process instead of lingering in the allocator's heap.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_set>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "mc/codec.hpp"
#include "mc/hash.hpp"
#include "mc/model.hpp"

namespace wfd::mc {
namespace detail {

/// The one packed key no model may use: it marks an empty seen-set slot.
/// The engine reports a model that packs it as a violation (it would
/// otherwise be silently conflated with "not seen yet").
inline constexpr std::uint64_t kReservedKey = ~0ull;

/// Tables larger than a few MB are random-access DRAM; backing them with
/// transparent huge pages keeps the TLB from becoming the bottleneck
/// (a 2^25-slot table spans 65k 4K pages but only 128 huge ones).
inline constexpr std::size_t kHugePage = 2 * 1024 * 1024;

#if defined(__linux__)
/// An anonymous mapping of `length` (a kHugePage multiple) bytes at a
/// kHugePage boundary, advised towards huge pages. Maps one extra huge page
/// and trims the misaligned head and tail.
inline void* map_huge_aligned(std::size_t length) {
  void* raw = mmap(nullptr, length + kHugePage, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = (base + kHugePage - 1) & ~(kHugePage - 1);
  const std::size_t head = aligned - base;  // < kHugePage: a tail remains
  if (head > 0) munmap(raw, head);
  munmap(reinterpret_cast<void*>(aligned + length), kHugePage - head);
  madvise(reinterpret_cast<void*>(aligned), length, MADV_HUGEPAGE);
  return reinterpret_cast<void*>(aligned);
}
#endif

/// Zero-filled storage for a table's plain slots (std::atomic_ref on the
/// probe path). A slab of kHugePage bytes or more is its own anonymous
/// mapping: 2MB-aligned, advised towards huge pages, zero without a memset,
/// and unmapped on release, so its pages leave the process with it. Smaller
/// slabs come from the heap, cache-line aligned and cleared here.
template <class T>
struct Slab {
  T* data = nullptr;
  std::size_t count = 0;

  Slab() = default;
  explicit Slab(std::size_t n) : count(n) {
#if defined(__linux__)
    if (mapped()) {
      data = static_cast<T*>(map_huge_aligned(mapped_length()));
      return;
    }
#endif
    data = static_cast<T*>(::operator new(bytes(), std::align_val_t{64}));
    std::memset(data, 0, bytes());
  }
  Slab(Slab&& other) noexcept
      : data(std::exchange(other.data, nullptr)),
        count(std::exchange(other.count, 0)) {}
  Slab& operator=(Slab&& other) noexcept {
    if (this != &other) {
      release();
      data = std::exchange(other.data, nullptr);
      count = std::exchange(other.count, 0);
    }
    return *this;
  }
  ~Slab() { release(); }

  std::size_t bytes() const { return count * sizeof(T); }
  /// True iff this slab is (or would be) its own anonymous mapping.
  bool mapped() const {
#if defined(__linux__)
    return bytes() >= kHugePage;
#else
    return false;
#endif
  }

 private:
  std::size_t mapped_length() const {
    return (bytes() + kHugePage - 1) & ~(kHugePage - 1);
  }

  void release() {
    if (data == nullptr) return;
#if defined(__linux__)
    if (mapped()) {
      munmap(data, mapped_length());
      return;
    }
#endif
    ::operator delete(data, bytes(), std::align_val_t{64});
  }
};

/// Lock-free open-addressing hash set of 64-bit packed states. Insertion is
/// a single CAS on an atomic slot (linear probing, splitmix64-mixed start);
/// duplicates cost one relaxed load. There is no deletion and no concurrent
/// growth: `reserve_level` may only be called while no worker is probing
/// (the engine calls it between BFS levels) and rebuilds the table
/// single-threaded.
class SeenSet {
 public:
  /// Smallest power-of-two slot count that keeps `expected` states at or
  /// below a 50% load factor.
  static std::uint64_t slots_for(std::uint64_t expected) {
    std::uint64_t slots = kMinSlots;
    while (slots < expected * 2) slots <<= 1;
    return slots;
  }

  explicit SeenSet(std::uint64_t expected_states) {
    rebuild(slots_for(expected_states));
  }

  /// True iff `key` was not present. Safe to call from any worker thread.
  /// The set does not count its own fill (that would be a shared atomic
  /// increment per new state); the engine derives it from its level
  /// accounting and passes it back into reserve_level.
  bool insert(std::uint64_t key) { return insert_hashed(mix64(key), key); }

  /// Insert with a precomputed mix64 hash (pairs with `home`).
  bool insert_hashed(std::uint64_t hash, std::uint64_t key) {
    assert(key != kReservedKey && "packed state collides with the sentinel");
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    for (;;) {
      std::atomic_ref<std::uint64_t> slot(slots_[i]);
      std::uint64_t cur = slot.load(std::memory_order_relaxed);
      if (cur == key) return false;
      if (cur == kReservedKey) {
        if (slot.compare_exchange_strong(cur, key,
                                         std::memory_order_relaxed)) {
          return true;
        }
        if (cur == key) return false;  // lost the race to the same key
      }
      i = (i + 1) & mask_;
    }
  }

  /// The slot insert_hashed(hash, ...) probes first.
  const void* home(std::uint64_t hash) const {
    return &slots_[static_cast<std::size_t>(hash) & mask_];
  }

  /// Grow so that `projected_inserts` more keys on top of the `fill` keys
  /// already present keep the load factor at or below 50%; true iff the
  /// table was rebuilt. MUST only be called while no worker thread is
  /// probing (the engine's level barrier); the rebuild is stop-the-world.
  bool reserve_level(std::uint64_t fill, std::uint64_t projected_inserts) {
    const std::uint64_t next = slots_for(fill + projected_inserts);
    if (next <= capacity()) return false;
    Slab<std::uint64_t> old = std::move(storage_);
    rebuild(next);
    for (std::size_t i = 0; i < old.count; ++i) {
      const std::uint64_t key = old.data[i];  // quiescent: plain loads fine
      if (key == kReservedKey) continue;
      std::size_t j = static_cast<std::size_t>(mix64(key)) & mask_;
      while (slots_[j] != kReservedKey) {
        j = (j + 1) & mask_;
      }
      slots_[j] = key;
    }
    return true;
  }

  /// Visit every stored key. Quiescent callers only (the level barrier).
  template <class F>
  void for_each(F&& visit) const {
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (slots_[i] != kReservedKey) visit(slots_[i]);
    }
  }

  std::uint64_t capacity() const { return mask_ + 1; }
  std::uint64_t bytes() const { return capacity() * sizeof(std::uint64_t); }

 private:
  static constexpr std::uint64_t kMinSlots = 1ull << 16;

  void rebuild(std::uint64_t capacity) {
    storage_ = Slab<std::uint64_t>(static_cast<std::size_t>(capacity));
    slots_ = storage_.data;
    mask_ = static_cast<std::size_t>(capacity) - 1;
    std::memset(slots_, 0xFF, static_cast<std::size_t>(capacity) *
                                  sizeof(std::uint64_t));  // all kReservedKey
  }

  Slab<std::uint64_t> storage_;
  std::uint64_t* slots_ = nullptr;
  std::size_t mask_ = 0;
};

/// Modular inverse of an odd 64-bit constant (Newton iteration); lets the
/// compact table reconstruct codes from stored hashes when it grows.
inline constexpr std::uint64_t odd_inverse(std::uint64_t a) {
  std::uint64_t x = a;  // correct to 3 bits; each step doubles the precision
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// Bucketized compact membership table for codes < 2^code_bits (code_bits
/// <= 63). See the file comment for the layout. Eligibility: the remainder
/// (code_bits - bucket_bits hash bits) must fit an entry's 31 payload bits,
/// i.e. slot count >= 2^(code_bits - 28).
class CompactSeenSet {
 public:
  static constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull | 1ull;
  static constexpr std::uint64_t kMulInv = odd_inverse(kMul);
  static constexpr std::uint32_t kOccupied = 1u << 31;
  static constexpr int kBucketSlots = 8;  // 8 x 4B = one cache line

  /// Smallest power-of-two slot count that can represent `code_bits`-wide
  /// codes at or below a 75% sizing target for `expected` states.
  static std::uint64_t slots_for(int code_bits, std::uint64_t expected) {
    std::uint64_t slots = kMinSlots;
    while (slots * 3 < expected * 4) slots <<= 1;
    while (code_bits - bucket_bits_for(slots) > 31) slots <<= 1;
    return slots;
  }

  CompactSeenSet(int code_bits, std::uint64_t expected)
      : code_bits_(code_bits) {
    assert(code_bits >= 1 && code_bits <= 63);
    rebuild(slots_for(code_bits, expected));
  }

  /// True iff `code` was not present. Lock-free except for the rare
  /// bucket-overflow stash.
  bool insert(std::uint64_t code) {
    assert((code >> code_bits_) == 0);
    const std::uint64_t h = (code * kMul) & code_mask(code_bits_);
    const std::size_t bucket = static_cast<std::size_t>(h >> rem_bits_);
    const std::uint32_t entry =
        kOccupied | static_cast<std::uint32_t>(h & rem_mask_);
    std::uint32_t* base = slots_ + bucket * kBucketSlots;
    for (int i = 0; i < kBucketSlots; ++i) {
      std::atomic_ref<std::uint32_t> slot(base[i]);
      std::uint32_t cur = slot.load(std::memory_order_relaxed);
      if (cur == entry) return false;
      if (cur == 0) {
        if (slot.compare_exchange_strong(cur, entry,
                                         std::memory_order_relaxed)) {
          return true;
        }
        if (cur == entry) return false;  // lost the race to the same code
      }
    }
    // Bucket full: fall back to the stash. Overflow is a low-percent event
    // at the table's sizing target, so a mutex here never shows up in
    // profiles — and set semantics keep the level's reached set exact.
    std::lock_guard<std::mutex> lock(stash_mutex_);
    return stash_.insert(code).second;
  }

  /// The bucket (one cache line) insert(code) probes.
  const void* home(std::uint64_t code) const {
    const std::uint64_t h = (code * kMul) & code_mask(code_bits_);
    return slots_ + static_cast<std::size_t>(h >> rem_bits_) * kBucketSlots;
  }

  /// Grow so the sizing target holds for `fill + projected_inserts` codes;
  /// true iff the table was rebuilt. MUST only be called at the engine's
  /// level barrier (stop-the-world rebuild; stored hashes are inverted back
  /// into codes and re-inserted, stash included — growth can only drain the
  /// stash, never feed it).
  bool reserve_level(std::uint64_t fill, std::uint64_t projected_inserts) {
    std::uint64_t want = capacity();
    while (want * 3 < (fill + projected_inserts) * 4) want <<= 1;
    if (want == capacity()) return false;
    Slab<std::uint32_t> old = std::move(storage_);
    const std::size_t old_slots = slot_count_;
    const int old_rem_bits = rem_bits_;
    std::unordered_set<std::uint64_t> old_stash = std::move(stash_);
    stash_.clear();
    rebuild(want);
    const auto reinsert = [this](std::uint64_t code) { insert(code); };
    decode(old.data, old_slots, old_rem_bits, reinsert);
    for (const std::uint64_t code : old_stash) insert(code);
    return true;
  }

  /// Visit every stored code, stash included. Quiescent callers only (the
  /// level barrier).
  template <class F>
  void for_each(F&& visit) const {
    decode(slots_, slot_count_, rem_bits_, visit);
    for (const std::uint64_t code : stash_) visit(code);
  }

  std::uint64_t capacity() const { return slot_count_; }
  std::uint64_t bytes() const {
    // Stash estimate: node + hash-bucket overhead per element.
    return slot_count_ * sizeof(std::uint32_t) +
           stash_.size() * 2 * sizeof(std::uint64_t) +
           stash_.bucket_count() * sizeof(void*);
  }
  std::uint64_t stash_size() const { return stash_.size(); }

 private:
  static constexpr std::uint64_t kMinSlots = 1ull << 16;

  /// Invert every entry of a table laid out with `rem_bits` remainder bits
  /// back into its code.
  template <class F>
  void decode(const std::uint32_t* slots, std::size_t count, int rem_bits,
              F& visit) const {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t e = slots[i];
      if (e == 0) continue;
      const std::uint64_t bucket = i / kBucketSlots;
      const std::uint64_t h = (bucket << rem_bits) | (e & ~kOccupied);
      visit((h * kMulInv) & code_mask(code_bits_));
    }
  }

  static int bucket_bits_for(std::uint64_t slots) {
    int bits = 0;
    while ((std::uint64_t{kBucketSlots} << bits) < slots) ++bits;
    return bits;
  }

  void rebuild(std::uint64_t slots) {
    const int bucket_bits = bucket_bits_for(slots);
    rem_bits_ = code_bits_ > bucket_bits ? code_bits_ - bucket_bits : 0;
    assert(rem_bits_ <= 31);
    rem_mask_ = rem_bits_ == 0 ? 0u
                               : static_cast<std::uint32_t>(
                                     code_mask(rem_bits_));
    storage_ = Slab<std::uint32_t>(static_cast<std::size_t>(slots));
    slots_ = storage_.data;  // zero-filled: all empty
    slot_count_ = slots;
  }

  int code_bits_;
  int rem_bits_ = 0;
  std::uint32_t rem_mask_ = 0;
  Slab<std::uint32_t> storage_;
  std::uint32_t* slots_ = nullptr;
  std::uint64_t slot_count_ = 0;
  std::mutex stash_mutex_;
  std::unordered_set<std::uint64_t> stash_;
};

/// One bit per code in [0, 2^code_bits), on a zero-filled Slab of 64-bit
/// words. Insert is a relaxed load, then a fetch_or only if the bit is
/// clear, so a duplicate costs one load and no write; of several racing
/// inserts of one code, exactly one sees the bit clear in its fetch_or.
/// Nothing to hash, probe or grow.
class BitmapSeenSet {
 public:
  static std::uint64_t bytes_for(int code_bits) {
    return words_for(code_bits) * sizeof(std::uint64_t);
  }

  explicit BitmapSeenSet(int code_bits)
      : code_bits_(code_bits),
        storage_(static_cast<std::size_t>(words_for(code_bits))) {
    assert(code_bits >= 1 && code_bits <= 63);
  }

  /// True iff `code` was not present. Safe to call from any worker thread.
  bool insert(std::uint64_t code) {
    assert((code >> code_bits_) == 0);
    return insert(storage_.data, code);
  }
  /// The same insert into a bitmap's words(), for a caller that keeps the
  /// pointer in a register across many inserts.
  static bool insert(std::uint64_t* words, std::uint64_t code) {
    std::atomic_ref<std::uint64_t> word(words[code >> 6]);
    const std::uint64_t bit = std::uint64_t{1} << (code & 63);
    if (word.load(std::memory_order_relaxed) & bit) return false;
    return (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
  }
  std::uint64_t* words() { return storage_.data; }

  /// Every code it can hold.
  std::uint64_t capacity() const { return std::uint64_t{1} << code_bits_; }
  std::uint64_t bytes() const { return storage_.bytes(); }

 private:
  static std::uint64_t words_for(int code_bits) {
    return ((std::uint64_t{1} << code_bits) + 63) / 64;
  }

  int code_bits_;
  Slab<std::uint64_t> storage_;
};

/// Facade over the three sets. One rule picks the representation: the
/// smallest one for the model's code width at the target fill (ties go to
/// the bitmap, then the compact table). It runs at construction, on the
/// expected-states hint, and again at every growth of the live table, on
/// fill + projected inserts: when it names another representation, every
/// key moves there and the old table is freed. Growth only happens at the
/// engine's level barrier, so a switch is as quiescent as any rebuild and
/// membership stays exact. The bitmap never grows and a hash table only
/// grows, so the rule only ever moves on from classic to compact to
/// bitmap; a switch in the other direction is never taken.
class SeenIndex {
 public:
  SeenIndex(int code_bits, std::uint64_t expected_states)
      : code_bits_(code_bits) {
    become(pick(expected_states), expected_states);
    peak_bytes_ = bytes();
  }

  /// `mix_hash` must be mix64(code); the classic table probes with it (the
  /// compact table derives its own multiplicative hash — one imul; the
  /// bitmap needs none).
  bool insert(std::uint64_t code, std::uint64_t mix_hash) {
    if (bitmap_) return bitmap_->insert(code);
    return compact_ ? compact_->insert(code)
                    : classic_->insert_hashed(mix_hash, code);
  }
  bool insert(std::uint64_t code) { return insert(code, mix64(code)); }

  /// The cache line insert(code, mix_hash) probes first on a hash table;
  /// the engine prefetches it a state ahead of the insert.
  const void* home(std::uint64_t code, std::uint64_t mix_hash) const {
    return compact_ ? compact_->home(code) : classic_->home(mix_hash);
  }

  /// The bitmap while it is the live representation, else null. It only
  /// changes at reserve_level, so the engine reads it once per level and
  /// inserts into it directly.
  BitmapSeenSet* bitmap() const { return bitmap_.get(); }

  /// Quiescent growth (the engine's level barrier only); may switch to a
  /// smaller representation. See the class comment.
  void reserve_level(std::uint64_t fill, std::uint64_t projected_inserts) {
    if (bitmap_) return;  // holds every code already
    const std::uint64_t held = bytes();
    const std::uint64_t target = fill + projected_inserts;
    const bool grows =
        compact_ ? CompactSeenSet::slots_for(code_bits_, target) >
                       compact_->capacity()
                 : SeenSet::slots_for(target) > classic_->capacity();
    const SeenTable next = pick(target);
    bool rebuilt = false;
    if (grows && next > kind()) {
      const std::unique_ptr<SeenSet> classic = std::move(classic_);
      const std::unique_ptr<CompactSeenSet> compact = std::move(compact_);
      become(next, target);
      const auto move_key = [this](std::uint64_t key) { insert(key); };
      if (classic) classic->for_each(move_key);
      if (compact) compact->for_each(move_key);
      rebuilt = true;
    } else if (compact_) {
      rebuilt = compact_->reserve_level(fill, projected_inserts);
    } else {
      rebuilt = classic_->reserve_level(fill, projected_inserts);
    }
    // A rebuild holds the old and the new table at once.
    if (rebuilt) peak_bytes_ = std::max(peak_bytes_, held + bytes());
  }

  SeenTable kind() const {
    return bitmap_    ? SeenTable::kBitmap
           : compact_ ? SeenTable::kCompact
                      : SeenTable::kClassic;
  }
  std::uint64_t capacity() const {
    return bitmap_    ? bitmap_->capacity()
           : compact_ ? compact_->capacity()
                      : classic_->capacity();
  }
  std::uint64_t bytes() const {
    return bitmap_    ? bitmap_->bytes()
           : compact_ ? compact_->bytes()
                      : classic_->bytes();
  }
  /// Most bytes held at once so far, rebuilds and switches included.
  std::uint64_t peak_bytes() const { return std::max(peak_bytes_, bytes()); }

 private:
  /// The one rule: the smallest representation for `target` states at
  /// this code width.
  SeenTable pick(std::uint64_t target) const {
    const std::uint64_t classic =
        SeenSet::slots_for(target) * sizeof(std::uint64_t);
    const std::uint64_t compact =
        code_bits_ <= 63 ? CompactSeenSet::slots_for(code_bits_, target) *
                               sizeof(std::uint32_t)
                         : classic + 1;
    if (code_bits_ <= 63 &&
        BitmapSeenSet::bytes_for(code_bits_) <= std::min(classic, compact)) {
      return SeenTable::kBitmap;
    }
    return compact <= classic ? SeenTable::kCompact : SeenTable::kClassic;
  }

  void become(SeenTable kind, std::uint64_t target) {
    switch (kind) {
      case SeenTable::kBitmap:
        bitmap_ = std::make_unique<BitmapSeenSet>(code_bits_);
        break;
      case SeenTable::kCompact:
        compact_ = std::make_unique<CompactSeenSet>(code_bits_, target);
        break;
      case SeenTable::kClassic:
        classic_ = std::make_unique<SeenSet>(target);
        break;
    }
  }

  int code_bits_;
  std::uint64_t peak_bytes_ = 0;
  std::unique_ptr<SeenSet> classic_;
  std::unique_ptr<CompactSeenSet> compact_;
  std::unique_ptr<BitmapSeenSet> bitmap_;
};

}  // namespace detail
}  // namespace wfd::mc
