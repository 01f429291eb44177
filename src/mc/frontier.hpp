// Disk-spillable BFS frontier, one lane per producer.
//
// The engine's frontier used to be one std::vector<S> per level; past a few
// hundred million states the frontier itself (not the seen-set) becomes the
// binding memory budget. This container stores the frontier as fixed-size
// segments of packed codes (codec.hpp), one lane per producer (the engine
// has one producer per worker). A producer appends next-level codes to one
// open buffer and seals each full buffer into its own lane, so no producer
// touches another's lane and sealing takes no lock; the level barrier
// orders every seal before begin_level, which joins the lanes in producer
// order. A one-producer check therefore expands every level in exactly the
// order its codes were found. While the resident sealed bytes stay under
// CheckOptions::frontier_budget_bytes a segment stays in memory; past the
// budget it is appended to the lane's temp spill file (created lazily with
// std::tmpfile, read back with pread, so concurrent worker reads need no
// locking). Each lane ping-pongs two spill files: one being read (current
// level) and one being written (next level), swapped at the level barrier,
// so file space is bounded by the two largest spilled levels rather than the
// whole run. A segment that cannot be read back whole (a pread error other
// than EINTR, or end of file) comes back as a View carrying the error, and
// the engine stops the check with it instead of expanding a partly filled
// buffer.
//
// Determinism: a BFS level is a SET of codes; which lane a code lands in,
// whether its segment spills, and which worker streams it back are all
// irrelevant to the reached set, so the engine's thread-count-independent
// verdict guarantee survives spilling untouched.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define WFD_MC_FRONTIER_CAN_SPILL 1
#else
#define WFD_MC_FRONTIER_CAN_SPILL 0
#endif

#include "mc/codec.hpp"

namespace wfd::mc {
namespace detail {

#if WFD_MC_FRONTIER_CAN_SPILL
/// Read exactly `bytes` bytes at `offset` of `fd` into `dst`, retrying
/// reads that EINTR cut short. Returns an empty string once every byte has
/// arrived, else why it could not: pread's error, or end of file first.
inline std::string pread_exact(int fd, void* dst, std::size_t bytes,
                               std::uint64_t offset) {
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n = ::pread(fd, static_cast<char*>(dst) + done, bytes - done,
                              static_cast<off_t>(offset + done));
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0) {
      return std::strerror(errno);
    } else {
      return "end of file after " + std::to_string(done) + " of " +
             std::to_string(bytes) + " bytes";
    }
  }
  return {};
}
#endif

class SpillableFrontier {
 public:
  static constexpr std::size_t kSegmentCodes = 4096;

  /// `lanes` is the number of producers; `budget_bytes` == 0 means
  /// unlimited (never spill).
  SpillableFrontier(int width, std::uint64_t budget_bytes, int lanes)
      : width_(width),
        budget_bytes_(budget_bytes),
        lanes_(static_cast<std::size_t>(lanes)) {}

  ~SpillableFrontier() {
    for (Lane& lane : lanes_) {
      for (std::FILE*& f : lane.file) {
        if (f != nullptr) std::fclose(f);
      }
    }
  }

  SpillableFrontier(const SpillableFrontier&) = delete;
  SpillableFrontier& operator=(const SpillableFrontier&) = delete;

  /// Per-worker append handle: one open buffer, sealed into the producer's
  /// own lane a full segment at a time. Aligned to a cache line because
  /// every new state writes the buffer's size: producers kept side by side
  /// in one vector would otherwise share lines across workers.
  class alignas(64) Producer {
   public:
    Producer(SpillableFrontier* frontier, int lane)
        : frontier_(frontier), buf_(frontier->width_), lane_(lane) {}

    void push(std::uint64_t code) {
      buf_.push_back(code);
      if (buf_.size() >= kSegmentCodes) frontier_->seal(lane_, buf_);
    }

    /// Seal the open buffer if non-empty; call before the level barrier.
    void flush() {
      if (!buf_.empty()) frontier_->seal(lane_, buf_);
    }

   private:
    SpillableFrontier* frontier_;
    PackedCodeVector buf_;
    int lane_;
  };

  /// Barrier-time, single-threaded: drop the consumed level, promote the
  /// sealed next-level segments lane by lane, each lane's in seal order,
  /// and carve them into chunks of (at most) `chunk_codes` codes (disk
  /// segments stream back whole). Also swaps the spill-file roles and
  /// rewinds the new write side.
  void begin_level(std::size_t chunk_codes) {
    for (Segment& seg : level_) {
      if (!seg.on_disk) {
        in_memory_bytes_.fetch_sub(seg.word_count * sizeof(std::uint64_t),
                                   std::memory_order_relaxed);
      }
    }
    level_.clear();
    chunks_.clear();
    level_codes_ = 0;
    parity_ ^= 1;
    for (Lane& lane : lanes_) {
      for (Segment& seg : lane.sealed) level_.push_back(std::move(seg));
      lane.sealed.clear();
      lane.write_offset[parity_ ^ 1] = 0;  // the write side for the next level
    }
    for (std::size_t s = 0; s < level_.size(); ++s) {
      const Segment& seg = level_[s];
      level_codes_ += seg.count;
      if (seg.on_disk) {
        chunks_.push_back({s, 0, seg.count});
      } else {
        for (std::size_t b = 0; b < seg.count; b += chunk_codes) {
          chunks_.push_back(
              {s, b, b + chunk_codes < seg.count ? b + chunk_codes
                                                 : seg.count});
        }
      }
    }
  }

  std::size_t level_size() const { return level_codes_; }
  std::size_t chunk_count() const { return chunks_.size(); }

  /// Codes sealed for the NEXT level (i.e. its size before begin_level
  /// promotes it). Only valid at the level barrier — every producer must
  /// have flushed and no worker may be pushing.
  std::size_t sealed_codes() const {
    std::size_t n = 0;
    for (const Lane& lane : lanes_) {
      for (const Segment& seg : lane.sealed) n += seg.count;
    }
    return n;
  }

  struct View {
    const std::uint64_t* words;  // packed at the frontier's width, then a
                                 // zero pad word (PackedCodeVector::read)
    std::size_t begin, end;      // code indices into `words`
    /// Non-empty when a spilled segment could not be read back; the view
    /// is then empty and the chunk's codes are unknown.
    std::string error;
  };

  /// Resolve chunk `i` for reading. Disk segments are streamed into the
  /// caller's scratch buffer (pread — safe from any worker concurrently).
  View resolve(std::size_t i, std::vector<std::uint64_t>& scratch) const {
    const Chunk& c = chunks_[i];
    const Segment& seg = level_[c.segment];
    if (!seg.on_disk) {
      return {seg.words.data(), c.begin, c.end, {}};
    }
#if WFD_MC_FRONTIER_CAN_SPILL
    // The file holds the codes' words; the pad after them is restored here.
    scratch.resize(seg.word_count + 1);
    scratch.back() = 0;
    const Lane& lane = lanes_[static_cast<std::size_t>(seg.lane)];
    std::string error = pread_exact(::fileno(lane.file[seg.file_parity]),
                                    scratch.data(),
                                    seg.word_count * sizeof(std::uint64_t),
                                    seg.file_offset);
    if (!error.empty()) {
      return {nullptr, 0, 0,
              "frontier spill read failed (lane " +
                  std::to_string(seg.lane) + "): " + error};
    }
#endif
    return {scratch.data(), c.begin, c.end, {}};
  }

  int width() const { return width_; }
  std::uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Segment {
    std::vector<std::uint64_t> words;  // codes + pad; empty once spilled
    std::size_t count = 0;
    std::size_t word_count = 0;  // without the pad, as accounted and spilled
    int lane = 0;
    int file_parity = 0;
    std::uint64_t file_offset = 0;  // bytes into the lane's spill file
    bool on_disk = false;
  };

  struct Chunk {
    std::size_t segment;
    std::size_t begin, end;
  };

  /// One producer's segments and spill files. Only that producer writes
  /// them during a level; begin_level reads them after the barrier.
  struct Lane {
    std::vector<Segment> sealed;  // in seal order
    std::FILE* file[2] = {nullptr, nullptr};
    std::uint64_t write_offset[2] = {0, 0};
  };

  /// Append `buf` to lane `l`'s sealed list, spilling to its write-side
  /// temp file if the resident sealed bytes would exceed the budget.
  void seal(int l, PackedCodeVector& buf) {
    Segment seg;
    seg.count = buf.size();
    seg.word_count = buf.word_count();
    seg.lane = l;
    const std::uint64_t seg_bytes = seg.word_count * sizeof(std::uint64_t);
    Lane& lane = lanes_[static_cast<std::size_t>(l)];
    const bool over_budget =
        budget_bytes_ != 0 &&
        in_memory_bytes_.load(std::memory_order_relaxed) + seg_bytes >
            budget_bytes_;
    if (WFD_MC_FRONTIER_CAN_SPILL && over_budget && spill(lane, buf, seg)) {
      spilled_bytes_.fetch_add(seg_bytes, std::memory_order_relaxed);
    } else {
      seg.words.assign(buf.words(), buf.words() + buf.word_count() + 1);
      const std::uint64_t now =
          in_memory_bytes_.fetch_add(seg_bytes, std::memory_order_relaxed) +
          seg_bytes;
      std::uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
      while (now > peak && !peak_bytes_.compare_exchange_weak(
                               peak, now, std::memory_order_relaxed)) {
      }
    }
    lane.sealed.push_back(std::move(seg));
    buf.clear();
  }

  bool spill(Lane& lane, const PackedCodeVector& buf, Segment& seg) {
#if WFD_MC_FRONTIER_CAN_SPILL
    const int parity = parity_ ^ 1;  // the write side for the NEXT level
    if (lane.file[parity] == nullptr) {
      lane.file[parity] = std::tmpfile();
      if (lane.file[parity] == nullptr) return false;  // keep in memory
    }
    const std::size_t total = buf.word_count() * sizeof(std::uint64_t);
    std::size_t done = 0;
    while (done < total) {
      const ssize_t n = ::pwrite(
          ::fileno(lane.file[parity]),
          reinterpret_cast<const char*>(buf.words()) + done, total - done,
          static_cast<off_t>(lane.write_offset[parity] + done));
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    seg.on_disk = true;
    seg.file_parity = parity;
    seg.file_offset = lane.write_offset[parity];
    lane.write_offset[parity] += total;
    return true;
#else
    (void)lane;
    (void)buf;
    (void)seg;
    return false;
#endif
  }

  int width_;
  std::uint64_t budget_bytes_;
  int parity_ = 0;  // read-side file index for the current level
  std::vector<Lane> lanes_;
  std::vector<Segment> level_;
  std::vector<Chunk> chunks_;
  std::size_t level_codes_ = 0;
  std::atomic<std::uint64_t> in_memory_bytes_{0};
  std::atomic<std::uint64_t> peak_bytes_{0};
  std::atomic<std::uint64_t> spilled_bytes_{0};
};

}  // namespace detail
}  // namespace wfd::mc
