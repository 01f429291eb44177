// Compact state codec for the model-checking engine.
//
// Every engine-visible state is a packed integral key ("code"), of which a
// model declares how many low bits are significant (`code_bits()`, see
// model.hpp). The engine's frontier holds codes as plain 32-bit words and
// its seen-set is a bitmap over every code (seen.hpp).
//
// DeltaEdgeLog is the per-worker edge log feeding the CSR build for
// AnalyzableModel types. Instead of 8B+1B per edge it stores, per expanded
// node, a varint out-degree followed by one varint XOR-delta (to-code XOR
// from-code; successors share most bits with their source in these packed
// encodings) plus a label byte per edge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wfd::mc {

/// All-ones mask of the low `bits` bits (bits in [1, 64]).
inline constexpr std::uint64_t code_mask(int bits) {
  return bits >= 64 ? ~0ull : ((1ull << bits) - 1);
}

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
