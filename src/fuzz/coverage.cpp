#include "fuzz/coverage.hpp"

#include <algorithm>

#include "mc/hash.hpp"

namespace wfd::fuzz {

namespace {

using mc::detail::mix64;

std::uint32_t bucket_of(std::uint64_t h) {
  return static_cast<std::uint32_t>(h) & (CoverageMap::kBuckets - 1);
}

std::uint64_t log2_bucket(std::uint64_t value) {
  std::uint64_t bucket = 0;
  while (value > 0) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

std::uint64_t hash_string(const std::string& text) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const char c : text) {
    h = mix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

}  // namespace

std::uint32_t feature_bucket(std::uint32_t axis, std::uint64_t value) {
  return bucket_of(mix64((std::uint64_t{axis} << 32) ^ mix64(value)));
}

void canonicalize_buckets(std::vector<std::uint32_t>* buckets) {
  std::sort(buckets->begin(), buckets->end());
  buckets->erase(std::unique(buckets->begin(), buckets->end()),
                 buckets->end());
}

std::vector<std::uint32_t> coverage_buckets(const FuzzConfig& config,
                                            const RunResult& result) {
  const std::vector<RunFeature> features = run_features(config, result);
  std::vector<std::uint32_t> buckets;
  buckets.reserve(2 * features.size() + 1);
  // Singles: which value did each axis take? The axis id salts the hash so
  // equal values on different axes land in different buckets.
  for (const RunFeature& f : features) {
    buckets.push_back(feature_bucket(f.axis, f.value));
  }
  // Adjacent-pair 2-grams: which value COMBINATIONS occurred? Folding each
  // feature with its predecessor is the cheapest order-sensitive composite
  // — enough to distinguish "scheduler X ever" from "scheduler X under
  // delay model Y".
  for (std::size_t i = 1; i < features.size(); ++i) {
    const std::uint64_t pair =
        mix64((std::uint64_t{features[i - 1].axis} << 48) ^
              (std::uint64_t{features[i].axis} << 32) ^
              mix64(features[i - 1].value) ^
              mix64(mix64(features[i].value)));
    buckets.push_back(bucket_of(pair));
  }
  // The whole-shape bucket: a run whose every per-axis feature is known can
  // still be a new combination; the signature already folds all of them.
  buckets.push_back(bucket_of(result.signature));
  canonicalize_buckets(&buckets);
  return buckets;
}

void append_counter_buckets(const obs::Snapshot& snapshot,
                            std::vector<std::uint32_t>* out) {
  for (const obs::Snapshot::Counter& counter : snapshot.sorted_counters()) {
    if (counter.value == 0) continue;
    out->push_back(bucket_of(
        mix64(hash_string(counter.name) ^ log2_bucket(counter.value))));
  }
}

}  // namespace wfd::fuzz
