// Building blocks of the repo benchmark (perfbench/main.cpp), kept apart so
// perfbench/selftest.cpp can test them without a daemon: the seeded request
// generators, the NDJSON client side (framing, response scanning, the
// closed-loop job exchange and its failure rules), and the statistics
// helpers. Nothing here is timed code of the program under test; the
// generators call the program's public fuzz/scenario entry points only to
// produce inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario.hpp"

namespace perfbench {

// --- seeded randomness ------------------------------------------------------

/// splitmix64: the benchmark's own generator, so the request stream does
/// not move when the program's simulator RNG changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

/// Independent sub-seed for stream `stream` of benchmark seed `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// --- request generation -----------------------------------------------------

enum class Kind : std::uint8_t { kRun, kScenario, kCampaign, kEvolve };
inline constexpr int kKinds = 4;
const char* kind_name(Kind kind);

/// One submit request: a single NDJSON line (no '\n' inside) plus its tag.
struct Request {
  Kind kind = Kind::kRun;
  std::string tag;
  std::string line;
};

/// Re-serialize a JSON document on one line. fuzz::config_to_json and
/// scenario_to_json print one key per line; pasted into a submit line as-is
/// they would reach the daemon as many invalid requests.
std::string one_line(const std::string& json_text);

/// The cache-miss stream of one serve_fresh connection: blocks of 32
/// requests (24 run, 6 scenario, 1 campaign, 1 evolve) in seeded order,
/// every request distinct from every other one of any connection or seed.
class FreshStream {
 public:
  static constexpr int kBlock = 32;
  FreshStream(std::uint64_t seed, int connection,
              const std::vector<wfd::scenario::Scenario>* vectors);
  /// The next request, generating a new block when the current one is used.
  Request next();
  /// The set-up's warm-up request of `kind` for `connection`: disjoint
  /// from every next() stream and the same for every benchmark seed.
  static Request warmup(int connection, Kind kind,
                        const std::vector<wfd::scenario::Scenario>* vectors);
  static constexpr std::uint64_t kWarmupSeed = 0x77a5e7;

 private:
  Request make(Kind kind, std::uint64_t index);
  std::uint64_t seed_;
  int connection_;
  const std::vector<wfd::scenario::Scenario>* vectors_;
  Rng order_;
  std::vector<Kind> block_;
  std::size_t cursor_ = 0;
  std::uint64_t made_ = 0;
};

/// The four two-pair extraction scenarios of mc_check (n = 3), one per
/// regime: exclusive, arbitrary, exclusive + crash, arbitrary + crash. The
/// seed changes the scenario text (seed, steps, timing, mistake window and
/// crash plan) but not the checked abstraction: every seed's scenario of a
/// regime has the same, exactly known state space. All expect mc clean.
struct McScenario {
  std::string regime;        ///< excl | arb | excl_crash | arb_crash
  std::string text;          ///< schema-v1 JSON
  std::uint64_t states = 0;  ///< reachable states of the abstraction
};
std::vector<McScenario> mc_scenarios(std::uint64_t seed);

// --- client side of the protocol --------------------------------------------

/// The fields of one daemon response line the benchmark reads. Values are
/// views into the scanned line.
struct Response {
  std::string_view type;
  std::string_view tag;
  std::string_view payload;  ///< raw JSON text of "payload"
  std::uint64_t job = 0;
  bool has_job = false;
  bool cached = false;
  bool has_cached = false;
};

/// Scan the top-level members of one response object (any member order;
/// nested values are skipped, not parsed). False on malformed JSON. The
/// client reads replies with this and LineConn rather than util::Json and
/// serve/framing.hpp, so its own cost does not move with the code under
/// test.
bool scan_response(std::string_view line, Response* out);

/// Blocking line-framed unix-socket connection with a read timeout.
class LineConn {
 public:
  enum class Status { kLine, kEof, kTimeout };
  LineConn() = default;
  explicit LineConn(int fd) : fd_(fd) {}
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool connect_unix(const std::string& path);
  bool send_line(std::string_view line);  ///< appends '\n'
  Status next(std::string* line, int timeout_ms);
  void close();
  std::uint64_t bytes_in() const { return bytes_in_; }
  std::uint64_t bytes_out() const { return bytes_out_; }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t start_ = 0;
  std::uint64_t bytes_in_ = 0;   ///< bytes read from the daemon
  std::uint64_t bytes_out_ = 0;  ///< bytes written to the daemon
};

/// Why a job failed; a job fails at most once, with the first reason seen.
enum class Failure : std::uint8_t {
  kNone,
  kError,      ///< {"type":"error"} line
  kRejected,   ///< {"type":"rejected"} line
  kEof,        ///< connection closed or read timed out before the result
  kProtocol,   ///< unparseable line, or one that belongs to another job
  kMismatch,   ///< payload differs from the reference
  kCached,     ///< "cached":true, though every request is new to the daemon
  kVerdict,    ///< mc verdict differs from expect.mc
};
const char* failure_name(Failure failure);

using Clock = std::chrono::steady_clock;

/// One closed-loop exchange as the client saw it.
struct JobRecord {
  Kind kind = Kind::kRun;
  Failure failure = Failure::kNone;
  Clock::time_point submit;
  Clock::time_point accepted;
  Clock::time_point result;
  std::uint32_t progress_lines = 0;
  bool accepted_late = false;   ///< accepted line came after the result
  std::uint64_t bytes_in = 0;   ///< response bytes, newlines included
  std::uint64_t bytes_out = 0;  ///< request bytes, newline included
  bool cached = false;
  std::string payload;
};

/// Send `request` and read until both its accepted and its result line
/// arrived, in either order. An error or rejected line, EOF or a timeout,
/// or a line of another job fails the job; the connection is not usable
/// after kEof or kProtocol.
JobRecord exchange(LineConn& conn, const Request& request, int timeout_ms);

/// Failure accounting: every attempted job counts once, every failed job
/// once, whatever the number of problems it had.
class Tally {
 public:
  void add(Failure failure);
  /// Turn an already counted success into a failure (a check after the
  /// timed phase); a job that already failed is not counted twice.
  void fail_after(Failure* recorded, Failure failure);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, std::uint64_t>& reasons() const {
    return reasons_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> reasons_;
};

// --- statistics ---------------------------------------------------------------

/// Nearest-rank percentile of `samples` (0 < p < 100): the value at rank
/// ceil(p/100 * n) of the sorted samples. Empty unless at least 10 samples
/// lie above that rank, so a reported tail is never one or two outliers.
std::optional<double> percentile(std::vector<double> samples, double p);

/// Median (nearest rank, no sample-count floor); 0 for no samples.
double median(std::vector<double> samples);

/// VmHWM of a process in MiB (`pid` 0 = this process); 0 if unreadable.
double peak_rss_mb(long pid);

}  // namespace perfbench
