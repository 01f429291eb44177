// The checker's 64-bit mixer, on its own so that code which only needs a
// hash (fuzz run signatures, seed derivation) does not pull in the engine.
#pragma once

#include <cstdint>

namespace wfd::mc::detail {

/// splitmix64 finalizer — packed states are highly structured; hash before
/// choosing probe positions.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace wfd::mc::detail
