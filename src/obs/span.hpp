// Phase spans: named (start, duration) intervals a producer records while
// it works, exported later as Perfetto "X" complete events (perfetto.hpp).
// Standalone (std-only) so the mc engine can record spans without pulling
// in the sim trace headers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wfd::obs {

/// One phase span. Times are milliseconds since the producer's chosen
/// origin (the mc engine uses run_check entry).
struct Span {
  std::string name;
  std::uint32_t track = 0;
  double start_ms = 0.0;
  double duration_ms = 0.0;
  std::uint64_t arg = 0;  ///< producer-specific (mc: states in the level)
};

/// Append-only span log. The mc engine's level step records one span per
/// BFS level and the calling thread a final analyze span; no lock is
/// needed because the barrier that runs the level step orders every
/// append after the previous one (obs::Scope), and readers wait for
/// run_check to return.
struct SpanLog {
  std::vector<Span> spans;
  void record(std::string name, std::uint32_t track, double start_ms,
              double duration_ms, std::uint64_t arg = 0) {
    spans.push_back({std::move(name), track, start_ms, duration_ms, arg});
  }
};

}  // namespace wfd::obs
