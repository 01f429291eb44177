// wfd_serve: a long-lived campaign daemon over the flat core (ROADMAP items
// 2 and 5a). One process listens on a Unix and/or loopback-TCP socket,
// accepts campaign requests as scenario-DSL or fuzz-config JSON, runs them
// on a bounded worker pool through the same fuzz/harness entry points the
// CLIs use, and streams NDJSON progress back to the requesting client.
//
// Protocol (NDJSON: one JSON object per '\n'-terminated line, both ways).
//
//   client -> server
//     {"type":"submit","kind":"run","config":{...FuzzConfig...},"tag":"t"}
//     {"type":"submit","kind":"scenario","scenario":{...schema v1...}}
//     {"type":"submit","kind":"campaign","runs":N,"master_seed":S,
//      "targets":"legal","shrink":true}
//     {"type":"submit","kind":"evolve","generations":G,"gen_size":K,
//      "max_family":M,"master_seed":S,"targets":"broken","corpus":"name",
//      "checkpoint_every":1}
//     {"type":"stats"}     {"type":"ping"}
//
//   server -> client
//     {"type":"accepted","job":J,"tag":"t","queue_depth":D}
//     {"type":"rejected","reason":"backpressure"|"draining","tag":"t",
//      "detail":"..."}                     // admission refused, never fatal
//     {"type":"error","error":"..."}       // malformed/invalid request
//     {"type":"progress","job":J,"phase":"campaign"|"evolve",
//      "completed":C,"total":T}            // heartbeats while a job runs
//     {"type":"result","job":J,"tag":"t","cached":B,"payload":{...}}
//     {"type":"stats","registry":{...obs::Snapshot::to_json()...}}
//     {"type":"pong"}
//
// Invariants the tests pin:
//
//  * Determinism — a submitted campaign's result payload is bit-identical
//    to execute_request() called directly on the same parsed request, which
//    in turn routes through the exact fuzz/scenario entry points wfd_fuzz
//    uses (run_config / run_scenario_fuzz / run_fuzz_campaign /
//    run_evolve_campaign). Payloads carry no wall-clock fields, so a cache
//    hit is byte-identical to a fresh computation.
//  * Bounded admission — the queue holds at most queue_capacity jobs;
//    overflow is an explicit {"type":"rejected","reason":"backpressure"}
//    line, never unbounded buffering. workers == 0 is a test mode where
//    nothing dequeues, making the capacity edge deterministic.
//  * Cancellation — a client disconnect marks its session gone: queued jobs
//    are dropped, a running job's campaign aborts at the next batch or
//    generation boundary (CampaignOptions/EvolveOptions::abort), and the
//    daemon keeps serving every other session (SIGPIPE is ignored
//    process-wide; EPIPE on a session write just tears that session down).
//  * Graceful drain — SIGTERM (a byte on notify_fd()) stops accepting and
//    admitting, completes every already-queued job, flushes its results,
//    then exits. Evolve jobs checkpoint the corpus between generations
//    (fuzz/corpus.hpp write+rename), so even a hard kill mid-campaign
//    leaves a consistent corpus on disk.
//
// The cache key is the canonical serialization of the request — for
// scenarios literally scenario_to_json's canonical bytes, for configs the
// normalized config_to_json — so two textually different submissions of the
// same experiment share one cache row. serve.* metrics (admissions, cache
// hits/misses, rejections, completions, queue depth) live in the daemon's
// obs::Registry, exported via {"type":"stats"}.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fuzz/config.hpp"
#include "fuzz/fuzzer.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "util/json.hpp"

namespace wfd::serve {

enum class JobKind : std::uint8_t { kRun, kScenario, kCampaign, kEvolve };
const char* to_string(JobKind kind);

/// kCampaign: a swarm campaign (fuzz::run_fuzz_campaign) request.
struct CampaignSpec {
  std::uint64_t master_seed = 1;
  std::uint64_t runs = 0;  ///< required, 1..1e6 (budget mode is CLI-only)
  std::vector<fuzz::TargetKind> targets;  ///< empty = legal pool
  bool shrink = true;
};

/// kEvolve: a coverage-guided campaign (fuzz::run_evolve_campaign) request.
/// The daemon forces jobs=1 — a multithreaded process must not fork
/// workers — which is bit-identical to any other width by the jobs
/// contract. Runway families are graded from one engine on the worker
/// thread, exactly as wfd_fuzz grades them.
struct EvolveSpec {
  std::uint64_t master_seed = 1;
  std::uint64_t generations = 4;
  std::uint32_t generation_size = 8;
  std::uint32_t max_family = 4;
  std::vector<fuzz::TargetKind> targets;  ///< empty = legal pool
  /// Corpus name under the daemon's --corpus-root ([A-Za-z0-9._-], no
  /// separators — clients name corpora, they don't point at paths). Empty =
  /// in-memory only.
  std::string corpus;
  std::uint64_t checkpoint_every = 1;
  bool shrink = true;
};

/// One parsed submit request. Exactly the member matching `kind` is live.
struct Request {
  JobKind kind = JobKind::kRun;
  std::string tag;               ///< client-chosen label, echoed verbatim
  fuzz::FuzzConfig config;       ///< kRun (already normalized)
  scenario::Scenario scenario;   ///< kScenario
  CampaignSpec campaign;         ///< kCampaign
  EvolveSpec evolve;             ///< kEvolve
};

/// Parse + validate one {"type":"submit",...} document. False puts a
/// client-facing message in `error` (the daemon returns it verbatim in a
/// {"type":"error"} line). Run configs are normalized here; scenarios go
/// through the strict schema-v1 parser.
bool parse_submit(const util::Json& doc, Request* out, std::string* error);

/// Canonical cache key: kind prefix + the request's canonical bytes
/// (normalized config_to_json for runs, scenario_to_json for scenarios, a
/// canonical field dump for campaigns). Empty = uncacheable (evolve is
/// stateful: its corpus directory evolves between submissions).
std::string cache_key(const Request& request);

/// Execution-time hooks for execute_request: cooperative abort, progress
/// heartbeats (phase is "campaign" or "evolve"), the daemon's registry for
/// fuzz.* campaign counters, and the resource knobs requests must not
/// choose for themselves.
struct ExecuteHooks {
  const std::atomic<bool>* abort = nullptr;
  std::function<void(const char* phase, std::uint64_t completed,
                     std::uint64_t total)>
      progress;
  obs::Registry* metrics = nullptr;
  int campaign_threads = 1;     ///< harness threads for kCampaign batches
  std::string corpus_root;      ///< parent dir for named evolve corpora
};

/// Execute a parsed request to completion and render its deterministic
/// result payload (a compact JSON object with no wall-clock fields). This
/// is the one function the daemon's workers call, exposed so the
/// socket-vs-direct bit-identity test can compare against it without a
/// daemon in the loop.
std::string execute_request(const Request& request, const ExecuteHooks& hooks);

struct ServerOptions {
  std::string unix_path;            ///< empty = no unix listener
  int tcp_port = -1;                ///< -1 = no TCP; 0 = ephemeral loopback
  int workers = 2;                  ///< 0 = admission-only (tests)
  std::size_t queue_capacity = 16;  ///< bounded admission queue
  std::size_t cache_capacity = 256; ///< result-cache rows (FIFO eviction)
  int campaign_threads = 1;
  std::string corpus_root;          ///< "" disables named evolve corpora
  std::size_t max_line_bytes = std::size_t{1} << 20;
  std::function<void(const std::string&)> narrate;  ///< stderr-style log
};

/// The daemon. Lifecycle: construct -> start() (bind + spawn workers) ->
/// run() (accept loop; blocks until a drain completes) -> destruct. A
/// signal handler triggers drain by writing one byte to notify_fd() (the
/// only async-signal-safe operation involved); request_drain() does the
/// same from normal code.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  bool start(std::string* error);
  void run();

  /// Write end of the self-pipe; one byte = drain. Valid after start().
  int notify_fd() const { return drain_pipe_[1]; }
  void request_drain();

  /// Resolved TCP port (after start(); useful with tcp_port == 0).
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  obs::Registry& metrics() { return registry_; }

 private:
  struct Session {
    int fd = -1;
    std::uint64_t id = 0;
    /// Peer disconnected or a write to it failed. Doubles as the abort flag
    /// campaigns poll (per-client cancellation on disconnect).
    std::atomic<bool> gone{false};
    std::atomic<bool> reader_done{false};
    std::mutex write_mu;
    std::thread reader;
    ~Session();
  };

  struct Job {
    std::uint64_t id = 0;
    std::shared_ptr<Session> session;
    Request request;
    std::string key;  ///< cache key ("" = uncacheable)
  };

  bool listen_unix(std::string* error);
  bool listen_tcp(std::string* error);
  void accept_client(int listen_fd);
  void reap_sessions(bool final_join);
  void session_main(std::shared_ptr<Session> session);
  void handle_line(const std::shared_ptr<Session>& session,
                   const std::string& line, obs::Scope& scope);
  void worker_main();
  void drain();
  bool session_write(Session& session, const std::string& line);
  /// session_write for a caller that already holds session.write_mu.
  bool session_write_locked(Session& session, const std::string& line);
  void narrate(const std::string& message);

  ServerOptions options_;
  obs::Registry registry_;
  obs::Registry::Id id_requests_;
  obs::Registry::Id id_accepted_;
  obs::Registry::Id id_rejected_backpressure_;
  obs::Registry::Id id_rejected_draining_;
  obs::Registry::Id id_rejected_invalid_;
  obs::Registry::Id id_cache_hits_;
  obs::Registry::Id id_cache_misses_;
  obs::Registry::Id id_jobs_completed_;
  obs::Registry::Id id_jobs_cancelled_;
  obs::Registry::Id id_clients_accepted_;
  obs::Registry::Id id_clients_disconnected_;
  obs::Registry::Id id_queue_depth_;   ///< gauge
  obs::Registry::Id id_active_jobs_;   ///< gauge

  int listen_unix_fd_ = -1;
  int listen_tcp_fd_ = -1;
  int tcp_port_ = -1;
  int drain_pipe_[2] = {-1, -1};
  bool unix_bound_ = false;
  std::atomic<bool> draining_{false};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool queue_closed_ = false;

  std::mutex cache_mu_;
  std::unordered_map<std::string, std::string> cache_;
  std::deque<std::string> cache_order_;  ///< FIFO eviction order

  std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 0;
  std::atomic<std::uint64_t> next_job_id_{0};
  std::atomic<int> active_jobs_{0};

  std::vector<std::thread> workers_;
};

}  // namespace wfd::serve
