#include "fuzz/snapshot.hpp"

#include <cerrno>

#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WFD_FUZZ_HAVE_FORK 1
#include <unistd.h>
#else
#define WFD_FUZZ_HAVE_FORK 0
#endif

namespace wfd::fuzz {

namespace wire {

void put_u64(std::string* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void put_string(std::string* out, const std::string& value) {
  put_u64(out, value.size());
  out->append(value);
}

void put_family_result(std::string* out, const FamilyResult& result) {
  put_string(out, config_to_json(result.config, 0));
  put_u64(out, result.result.failures.size());
  for (const OracleFailure& failure : result.result.failures) {
    put_string(out, failure.oracle);
    put_u64(out, failure.at);
    put_string(out, failure.detail);
  }
  const RunStats& s = result.result.stats;
  for (const std::uint64_t value :
       {s.steps, s.messages_sent, s.messages_delivered, s.messages_dropped,
        s.messages_lost, s.messages_duplicated, s.messages_retransmitted,
        s.in_transit, s.crashes, s.total_meals, s.exclusion_violations,
        s.late_violations, s.last_violation, s.detector_flips,
        s.late_suspicion_episodes, s.deadline, s.wait_bound}) {
    put_u64(out, value);
  }
  put_u64(out, result.result.signature);
  put_u64(out, result.buckets.size());
  for (const std::uint32_t bucket : result.buckets) put_u64(out, bucket);
  put_u64(out, result.resumed ? 1 : 0);
}

bool Reader::get_u64(std::uint64_t* value) {
  if (data_.size() - pos_ < 8) return false;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 8;
  *value = v;
  return true;
}

bool Reader::get_string(std::string* value) {
  std::uint64_t size = 0;
  if (!get_u64(&size)) return false;
  if (data_.size() - pos_ < size) return false;
  value->assign(data_, pos_, size);
  pos_ += size;
  return true;
}

bool Reader::get_family_result(FamilyResult* result) {
  *result = FamilyResult{};
  std::string config_json;
  std::string error;
  if (!get_string(&config_json) ||
      !config_from_json(config_json, &result->config, &error)) {
    return false;
  }
  std::uint64_t failures = 0;
  if (!get_u64(&failures) || failures > 1024) return false;
  for (std::uint64_t i = 0; i < failures; ++i) {
    OracleFailure failure;
    if (!get_string(&failure.oracle) || !get_u64(&failure.at) ||
        !get_string(&failure.detail)) {
      return false;
    }
    result->result.failures.push_back(std::move(failure));
  }
  RunStats& s = result->result.stats;
  for (std::uint64_t* field :
       {&s.steps, &s.messages_sent, &s.messages_delivered,
        &s.messages_dropped, &s.messages_lost, &s.messages_duplicated,
        &s.messages_retransmitted, &s.in_transit, &s.crashes, &s.total_meals,
        &s.exclusion_violations, &s.late_violations, &s.last_violation,
        &s.detector_flips, &s.late_suspicion_episodes, &s.deadline,
        &s.wait_bound}) {
    if (!get_u64(field)) return false;
  }
  if (!get_u64(&result->result.signature)) return false;
  std::uint64_t buckets = 0;
  if (!get_u64(&buckets) || buckets > CoverageMap::kBuckets) return false;
  for (std::uint64_t i = 0; i < buckets; ++i) {
    std::uint64_t bucket = 0;
    if (!get_u64(&bucket)) return false;
    result->buckets.push_back(static_cast<std::uint32_t>(bucket));
  }
  std::uint64_t resumed = 0;
  if (!get_u64(&resumed)) return false;
  result->resumed = resumed != 0;
  return true;
}

bool write_all(int fd, const std::string& data) {
#if WFD_FUZZ_HAVE_FORK
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
#else
  (void)fd;
  (void)data;
  return false;
#endif
}

bool read_all(int fd, std::string* out) {
#if WFD_FUZZ_HAVE_FORK
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out->append(buf, static_cast<std::size_t>(n));
  }
#else
  (void)fd;
  (void)out;
  return false;
#endif
}

}  // namespace wire

namespace {

/// The evolve loop's standard capture: retain nothing (monitors still see
/// every event — retention only controls the ring), count everything into a
/// private registry so the run's counter footprint can be bucketized.
struct EvolveCapture {
  obs::Registry registry;
  RunCapture capture;
  EvolveCapture() {
    capture.trace_capacity = 1;
    capture.retain_kinds = 0;
    capture.metrics = &registry;
  }
};

void finish_buckets(const FuzzConfig& config, const RunResult& result,
                    const obs::Snapshot& snapshot, FamilyResult* out) {
  out->buckets = coverage_buckets(config, result);
  append_counter_buckets(snapshot, &out->buckets);
  canonicalize_buckets(&out->buckets);
}

/// Family-shape check for runway: every variant equals the first except
/// for strictly ascending steps, and every variant is normalize-stable.
bool verify_runway(const std::vector<FuzzConfig>& variants) {
  for (std::size_t i = 0; i < variants.size(); ++i) {
    FuzzConfig leveled = variants[i];
    leveled.steps = variants[0].steps;
    if (config_to_json(leveled, 0) != config_to_json(variants[0], 0)) {
      return false;
    }
    if (i > 0 && variants[i].steps <= variants[i - 1].steps) return false;
    if (config_to_json(normalize(variants[i]), 0) !=
        config_to_json(variants[i], 0)) {
      return false;
    }
  }
  return true;
}

std::vector<FamilyResult> run_cold(const std::vector<FuzzConfig>& variants,
                                   SnapshotStats* stats) {
  std::vector<FamilyResult> results;
  results.reserve(variants.size());
  for (const FuzzConfig& variant : variants) {
    results.push_back(cold_family_run(variant));
    if (stats != nullptr) ++stats->cold_runs;
  }
  return results;
}

std::vector<FamilyResult> run_runway(const std::vector<FuzzConfig>& variants,
                                     SnapshotStats* stats) {
  std::vector<FamilyResult> results;
  results.reserve(variants.size());
  EvolveCapture cap;
  ConfigRun run(variants[0], &cap.capture);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    run.advance_to(variants[i].steps);
    FamilyResult fr;
    fr.config = variants[i];
    fr.result = run.grade(variants[i]);
    // The cumulative registry at milestone i IS the cold-run export of
    // variant i: the engine passes through tick s_i identically either way
    // and grading retains nothing.
    finish_buckets(variants[i], fr.result, cap.registry.snapshot(), &fr);
    fr.resumed = i > 0;
    results.push_back(std::move(fr));
    if (stats != nullptr) {
      if (i == 0) ++stats->cold_runs; else ++stats->milestone_runs;
    }
  }
  return results;
}

}  // namespace

FamilyResult cold_family_run(const FuzzConfig& raw) {
  const FuzzConfig config = normalize(raw);
  EvolveCapture cap;
  FamilyResult fr;
  fr.config = config;
  fr.result = run_config(config, cap.capture);
  finish_buckets(config, fr.result, cap.registry.snapshot(), &fr);
  return fr;
}

std::vector<FamilyResult> run_family(const MutationPlan& plan,
                                     SnapshotStats* stats) {
  if (stats != nullptr) ++stats->families;
  std::vector<FuzzConfig> variants;
  variants.reserve(plan.variants.size());
  for (const FuzzConfig& variant : plan.variants) {
    variants.push_back(normalize(variant));
  }
  if (plan.runway_family && variants.size() >= 2 && verify_runway(variants)) {
    return run_runway(variants, stats);
  }
  return run_cold(variants, stats);
}

}  // namespace wfd::fuzz
