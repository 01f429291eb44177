// The model-checking engine's seen-set: one bit per state code.
//
// Every model declares the width of its packed state codes (`code_bits()`,
// at most kMaxCodeBits), so membership is a bitmap over [0, 2^code_bits):
// no hash, no probe, no growth. An insert is a relaxed load and, only if
// the bit is clear, an atomic fetch_or, so workers insert concurrently
// without locks and a duplicate costs one load. The bitmap takes
// 2^code_bits / 8 bytes whatever the fill: 128 KiB at 20 bits, 2 MiB at
// 24 (8.3M states or not). A bitmap of 2 MiB or more is its own anonymous
// mapping (Slab), so its untouched pages are never resident and its pages
// leave the process with it.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace wfd::mc {
namespace detail {

/// A bitmap of a few MB is probed at random; backing it with transparent
/// huge pages keeps the TLB from becoming the bottleneck (a 2 MiB bitmap
/// spans 512 4K pages but one huge one).
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

/// Zero-filled storage for the bitmap's plain words (std::atomic_ref on the
/// insert path). A slab of kHugePage bytes or more is its own anonymous
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

}  // namespace detail
}  // namespace wfd::mc
