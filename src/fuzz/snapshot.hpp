// Family execution for the evolve loop: grade every variant of a mutation
// plan, sharing one engine where the family shape allows it.
//
//  * runway families (variants identical except strictly ascending `steps`)
//    advance one engine through the milestones and grade it READ-ONLY at
//    each (ConfigRun::grade is const), so grading milestone i and
//    continuing is bit-identical to a cold run of milestone i+1 — K runs
//    for ~1 engine-run of the longest variant;
//
//  * every other plan (single variants and crash_suffix families alike) is
//    graded cold, each variant replayed from t=0.
//
// The milestone path is pinned bit-identical to cold replay (result, trace
// stream and obs counters) by tests/test_fuzz_evolve.cpp over the whole
// conformance-vector corpus; a family whose shape is not as declared runs
// cold, so a family can be slower than advertised but never wrong. Both
// paths run entirely on the calling thread, so any number of threads may
// grade families at once (the serve daemon's workers do).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/config.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/mutators.hpp"
#include "fuzz/oracles.hpp"

namespace wfd::fuzz {

/// One graded variant: result plus its full coverage-bucket list (feature
/// buckets + obs counter buckets, canonicalized).
struct FamilyResult {
  FuzzConfig config;  ///< the normalized variant that was graded
  RunResult result;
  std::vector<std::uint32_t> buckets;
  bool resumed = false;  ///< a runway milestone past the first, not cold
};

struct SnapshotStats {
  std::uint64_t families = 0;
  std::uint64_t cold_runs = 0;       ///< full replays from t=0
  std::uint64_t milestone_runs = 0;  ///< runway grades past the first
};

/// Grade every variant of `plan`: a verified runway family from one engine,
/// anything else cold. Results are in plan order. Pure function of the
/// plan: milestone and cold execution yield bit-identical FamilyResults.
std::vector<FamilyResult> run_family(const MutationPlan& plan,
                                     SnapshotStats* stats);

/// Cold-run a single config with the evolve loop's standard capture (no
/// trace retention, a private obs registry for counter coverage).
FamilyResult cold_family_run(const FuzzConfig& config);

// --- wire helpers ---------------------------------------------------------
// Length-prefixed little-endian serialization used on the --jobs worker
// shards' pipes, so a FamilyResult reads back identically whichever process
// graded it.
namespace wire {

void put_u64(std::string* out, std::uint64_t value);
void put_string(std::string* out, const std::string& value);
void put_family_result(std::string* out, const FamilyResult& result);

/// Buffered whole-stream reader (the writer side closes its fd to finish).
class Reader {
 public:
  explicit Reader(std::string data) : data_(std::move(data)) {}
  bool get_u64(std::uint64_t* value);
  bool get_string(std::string* value);
  bool get_family_result(FamilyResult* result);
  bool at_end() const { return pos_ == data_.size(); }

 private:
  std::string data_;
  std::size_t pos_ = 0;
};

/// Write all of `data` to `fd`, retrying on short writes/EINTR.
bool write_all(int fd, const std::string& data);
/// Read `fd` to EOF into `out`, retrying on EINTR.
bool read_all(int fd, std::string* out);

}  // namespace wire

}  // namespace wfd::fuzz
