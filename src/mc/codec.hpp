// Compact state codec for the model-checking engine.
//
// Every engine-visible state is a packed integral key ("code"), of which a
// model declares how many low bits are significant (`code_bits()`, see
// model.hpp). The engine stores frontier codes in the whole bytes that
// width needs, and its seen-set is a bitmap over every code (seen.hpp).
//
// Two storage primitives live here:
//  * PackedCodeVector — an append-only vector of fixed-width codes, each in
//    ceil(width/8) bytes back-to-back over 64-bit words, followed by one
//    zero pad word so that a read is one unaligned 8-byte load and a mask.
//    This is the frontier-segment representation, and the unit that the
//    spillable frontier writes to / reads back from temp files (without the
//    pad, which the reader restores).
//  * DeltaEdgeLog — the per-worker edge log feeding the CSR build for
//    AnalyzableModel types. Instead of 8B+1B per edge it stores, per
//    expanded node, a varint out-degree followed by one varint XOR-delta
//    (to-code XOR from-code; successors share most bits with their source
//    in these packed encodings) plus a label byte per edge.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace wfd::mc {

/// All-ones mask of the low `bits` bits (bits in [1, 64]).
inline constexpr std::uint64_t code_mask(int bits) {
  return bits >= 64 ? ~0ull : ((1ull << bits) - 1);
}

/// Append-only fixed-width code store. Each code takes ceil(width/8) bytes,
/// little-endian, back-to-back; a code may straddle two words. One zero pad
/// word always follows the last word that holds a code, inside the vector's
/// size, so push_back is one 8-byte store and read one 8-byte load and a
/// mask: neither branches on the straddle, and neither leaves the vector.
/// Random-access reads only — no mutation after append — so the word array
/// can be spilled to disk and re-materialized verbatim.
class PackedCodeVector {
 public:
  static_assert(std::endian::native == std::endian::little,
                "codes are stored and loaded as little-endian words");

  PackedCodeVector() = default;
  explicit PackedCodeVector(int width) : width_(width) {
    assert(width >= 1 && width <= 64);
  }

  void push_back(std::uint64_t code) {
    assert(width_ == 64 || (code >> width_) == 0);
    const std::size_t byte = size_ * bytes_per_code(width_);
    ++size_;
    // The vector's own growth: a code that reaches the pad needs a new one.
    if (words_.size() == word_count()) words_.push_back(0);
    // The store's bytes past the code are zero, as the pad already was.
    std::memcpy(reinterpret_cast<char*>(words_.data()) + byte, &code,
                sizeof code);
  }

  std::uint64_t operator[](std::size_t i) const {
    return read(words_.data(), width_, i);
  }

  /// Decode code `i` out of a raw word array packed at `width`, which
  /// must hold the 8 bytes from code `i`'s first one: the later codes or
  /// the pad. (Static so spilled segments can be decoded from a scratch
  /// buffer.)
  static std::uint64_t read(const std::uint64_t* words, int width,
                            std::size_t i) {
    const char* const first =
        reinterpret_cast<const char*>(words) + i * bytes_per_code(width);
    std::uint64_t code;
    std::memcpy(&code, first, sizeof code);
    return code & code_mask(width);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int width() const { return width_; }
  /// word_count() words of codes, then the zero pad.
  const std::uint64_t* words() const { return words_.data(); }
  /// Words that hold codes (the pad not included): what a spill writes.
  std::size_t word_count() const { return words_for(size_, width_); }
  std::uint64_t bytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

  /// Bytes one code of `width` bits takes.
  static std::size_t bytes_per_code(int width) {
    return static_cast<std::size_t>(width + 7) >> 3;
  }
  /// Words needed to hold `count` codes of `width` bits.
  static std::size_t words_for(std::size_t count, int width) {
    return (count * bytes_per_code(width) + 7) >> 3;
  }

  void clear() {
    words_.assign(1, 0);
    size_ = 0;
  }

 private:
  int width_ = 64;
  std::vector<std::uint64_t> words_ = std::vector<std::uint64_t>(1);  // pad
  std::size_t size_ = 0;
};

/// LEB128 varint append.
inline void varint_put(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// LEB128 varint read; advances `pos`.
inline std::uint64_t varint_get(const std::uint8_t* bytes, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t b = bytes[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

/// Per-worker delta-compressed edge log. One record per expanded node:
/// the node's code goes into `keys` (needed uncompressed for the CSR sort),
/// its record offset into `offsets`, and the byte stream holds
/// varint(degree) then per edge varint(to_code XOR from_code) + label byte.
struct DeltaEdgeLog {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> offsets;  // byte offset of each node's record
  std::vector<std::uint8_t> stream;
  std::uint64_t edges = 0;

  template <class EdgeRange>
  void append(std::uint64_t from_code, const EdgeRange& to_codes) {
    keys.push_back(from_code);
    offsets.push_back(stream.size());
    varint_put(stream, to_codes.size());
    for (const auto& [to_code, label] : to_codes) {
      varint_put(stream, to_code ^ from_code);
      stream.push_back(label);
    }
    edges += to_codes.size();
  }

  /// Decode node `n`'s record, invoking fn(to_code, label) per edge.
  template <class Fn>
  void decode(std::size_t n, Fn&& fn) const {
    std::size_t pos = offsets[n];
    const std::uint64_t from = keys[n];
    const std::uint64_t degree = varint_get(stream.data(), pos);
    for (std::uint64_t e = 0; e < degree; ++e) {
      const std::uint64_t delta = varint_get(stream.data(), pos);
      const std::uint8_t label = stream[pos++];
      fn(from ^ delta, label);
    }
  }

  std::uint32_t degree(std::size_t n) const {
    std::size_t pos = offsets[n];
    return static_cast<std::uint32_t>(varint_get(stream.data(), pos));
  }

  std::uint64_t bytes() const {
    return keys.capacity() * sizeof(std::uint64_t) +
           offsets.capacity() * sizeof(std::uint64_t) + stream.capacity();
  }

  void clear() {
    keys.clear();
    offsets.clear();
    stream.clear();
    edges = 0;
  }
};

}  // namespace wfd::mc
