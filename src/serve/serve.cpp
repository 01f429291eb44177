#include "serve/serve.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "fuzz/evolve.hpp"
#include "fuzz/oracles.hpp"
#include "obs/progress.hpp"
#include "scenario/adapters.hpp"
#include "serve/framing.hpp"
#include "util/parse.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define WFD_SERVE_POSIX 1
#endif

namespace wfd::serve {

namespace {

using util::Json;

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// --- deterministic result payloads ----------------------------------------
// Every field below is a pure function of the request (wall-clock stats like
// elapsed_ms are deliberately absent), so a cached payload is byte-identical
// to recomputing it — the property the cache-hit test pins.

Json repro_json(const fuzz::ReproCase& repro) {
  Json out = Json::object();
  out.set("target", Json::of_string(to_string(repro.config.target)));
  out.set("oracle", Json::of_string(repro.oracle));
  out.set("at", Json::of_u64(repro.at));
  out.set("detail", Json::of_string(repro.detail));
  Json config = Json::object();
  std::string error;
  if (Json::parse(fuzz::config_to_json(repro.config, 0), &config, &error)) {
    out.set("config", std::move(config));
  }
  return out;
}

Json oracle_failures_json(const std::map<std::string, std::uint64_t>& map) {
  Json out = Json::object();
  for (const auto& [oracle, count] : map) {
    out.set(oracle, Json::of_u64(count));
  }
  return out;
}

std::string run_payload(const fuzz::FuzzConfig& config,
                        const fuzz::RunResult& result) {
  Json out = Json::object();
  out.set("kind", Json::of_string("run"));
  out.set("target", Json::of_string(to_string(config.target)));
  out.set("seed", Json::of_u64(config.seed));
  out.set("verdict", Json::of_string(result.ok() ? "clean" : "violation"));
  const fuzz::OracleFailure* primary = result.primary();
  out.set("oracle", Json::of_string(primary ? primary->oracle : ""));
  out.set("at", Json::of_u64(primary ? primary->at : 0));
  out.set("detail", Json::of_string(primary ? primary->detail : ""));
  out.set("signature", Json::of_string(hex64(result.signature)));
  out.set("steps", Json::of_u64(result.stats.steps));
  out.set("messages_sent", Json::of_u64(result.stats.messages_sent));
  out.set("messages_delivered", Json::of_u64(result.stats.messages_delivered));
  out.set("total_meals", Json::of_u64(result.stats.total_meals));
  out.set("crashes", Json::of_u64(result.stats.crashes));
  out.set("deadline", Json::of_u64(result.stats.deadline));
  out.set("wait_bound", Json::of_u64(result.stats.wait_bound));
  return out.dump(0);
}

std::string scenario_payload(const scenario::Scenario& scenario,
                             const scenario::EngineOutcome& outcome) {
  Json out = Json::object();
  out.set("kind", Json::of_string("scenario"));
  out.set("name", Json::of_string(scenario.name));
  out.set("verdict",
          Json::of_string(outcome.violation ? "violation" : "clean"));
  out.set("oracle", Json::of_string(outcome.oracle));
  out.set("detail", Json::of_string(outcome.detail));
  Json seeds = Json::array();
  for (const std::uint64_t seed : scenario::sweep_seeds(scenario)) {
    seeds.push(Json::of_u64(seed));
  }
  out.set("seeds", std::move(seeds));
  if (scenario.supports_fuzz()) {
    out.set("expected", Json::of_string(scenario.expect_fuzz.violation
                                            ? "violation"
                                            : "clean"));
    const bool matches =
        outcome.violation == scenario.expect_fuzz.violation &&
        (scenario.expect_fuzz.oracle.empty() || !outcome.violation ||
         outcome.oracle == scenario.expect_fuzz.oracle);
    out.set("matches_expectation", Json::of_bool(matches));
  }
  return out.dump(0);
}

std::string campaign_payload(const fuzz::CampaignResult& result) {
  Json out = Json::object();
  out.set("kind", Json::of_string("campaign"));
  out.set("executed", Json::of_u64(result.stats.executed));
  out.set("failing", Json::of_u64(result.stats.failing));
  out.set("corpus_size", Json::of_u64(result.stats.corpus_size));
  out.set("novel", Json::of_u64(result.stats.novel));
  out.set("shrink_runs", Json::of_u64(result.stats.shrink_runs));
  out.set("total_steps", Json::of_u64(result.stats.total_steps));
  out.set("total_messages", Json::of_u64(result.stats.total_messages));
  out.set("total_meals", Json::of_u64(result.stats.total_meals));
  out.set("oracle_failures", oracle_failures_json(result.stats.oracle_failures));
  Json repros = Json::array();
  for (const fuzz::ReproCase& repro : result.repros) {
    repros.push(repro_json(repro));
  }
  out.set("repros", std::move(repros));
  return out.dump(0);
}

std::string evolve_payload(const fuzz::EvolveResult& result) {
  Json out = Json::object();
  out.set("kind", Json::of_string("evolve"));
  out.set("executed", Json::of_u64(result.stats.executed));
  out.set("failing", Json::of_u64(result.stats.failing));
  out.set("novel", Json::of_u64(result.stats.novel));
  out.set("coverage_bits", Json::of_u64(result.stats.coverage_bits));
  out.set("corpus_entries", Json::of_u64(result.stats.corpus_entries));
  out.set("families", Json::of_u64(result.stats.families));
  out.set("shrink_runs", Json::of_u64(result.stats.shrink_runs));
  out.set("oracle_failures", oracle_failures_json(result.stats.oracle_failures));
  Json repros = Json::array();
  for (const fuzz::ReproCase& repro : result.repros) {
    repros.push(repro_json(repro));
  }
  out.set("repros", std::move(repros));
  Json signatures = Json::array();
  for (const std::uint64_t signature : result.corpus_signatures) {
    signatures.push(Json::of_string(hex64(signature)));
  }
  out.set("corpus_signatures", std::move(signatures));
  return out.dump(0);
}

// --- request parsing -------------------------------------------------------

bool field_u64(const Json& doc, const char* name, std::uint64_t lo,
               std::uint64_t hi, std::uint64_t fallback, std::uint64_t* out,
               std::string* error) {
  const Json* member = doc.find(name);
  if (member == nullptr) {
    *out = fallback;
    return true;
  }
  std::uint64_t value = 0;
  if (member->kind != Json::Kind::kNumber ||
      !util::parse_u64(member->number, &value) || value < lo || value > hi) {
    *error = std::string(name) + " must be an integer in [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return false;
  }
  *out = value;
  return true;
}

bool field_targets(const Json& doc, std::vector<fuzz::TargetKind>* out,
                   std::string* error) {
  const Json* member = doc.find("targets");
  if (member == nullptr) {
    out->clear();  // campaign default: the legal pool
    return true;
  }
  if (member->kind != Json::Kind::kString) {
    *error = "targets must be a string spec (legal | broken | all | names)";
    return false;
  }
  return fuzz::resolve_target_pool({member->str}, out, error);
}

bool valid_corpus_name(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kRun: return "run";
    case JobKind::kScenario: return "scenario";
    case JobKind::kCampaign: return "campaign";
    case JobKind::kEvolve: return "evolve";
  }
  return "?";
}

bool parse_submit(const Json& doc, Request* out, std::string* error) {
  const Json* kind = doc.find("kind");
  if (kind == nullptr || kind->kind != Json::Kind::kString) {
    *error = "submit needs a string kind (run | scenario | campaign | evolve)";
    return false;
  }
  const Json* tag = doc.find("tag");
  if (tag != nullptr) {
    if (tag->kind != Json::Kind::kString) {
      *error = "tag must be a string";
      return false;
    }
    out->tag = tag->str;
  }
  if (kind->str == "run") {
    out->kind = JobKind::kRun;
    const Json* config = doc.find("config");
    if (config == nullptr || config->kind != Json::Kind::kObject) {
      *error = "kind run needs a config object";
      return false;
    }
    if (!fuzz::config_from_json(config->dump(0), &out->config, error)) {
      return false;
    }
    out->config = fuzz::normalize(out->config);
    return true;
  }
  if (kind->str == "scenario") {
    out->kind = JobKind::kScenario;
    const Json* scenario = doc.find("scenario");
    if (scenario == nullptr || scenario->kind != Json::Kind::kObject) {
      *error = "kind scenario needs a scenario object (schema v1)";
      return false;
    }
    return scenario::parse_scenario(scenario->dump(0), &out->scenario, error);
  }
  if (kind->str == "campaign") {
    out->kind = JobKind::kCampaign;
    CampaignSpec& spec = out->campaign;
    if (!field_u64(doc, "runs", 1, 1'000'000, 0, &spec.runs, error) ||
        !field_u64(doc, "master_seed", 0, UINT64_MAX, 1, &spec.master_seed,
                   error) ||
        !field_targets(doc, &spec.targets, error)) {
      return false;
    }
    if (doc.find("runs") == nullptr) {
      *error = "kind campaign needs runs (1..1000000)";
      return false;
    }
    const Json* shrink = doc.find("shrink");
    spec.shrink = shrink == nullptr ? true : shrink->as_bool(true);
    return true;
  }
  if (kind->str == "evolve") {
    out->kind = JobKind::kEvolve;
    EvolveSpec& spec = out->evolve;
    std::uint64_t generation_size = 0;
    std::uint64_t max_family = 0;
    if (!field_u64(doc, "generations", 1, 100'000, 4, &spec.generations,
                   error) ||
        !field_u64(doc, "gen_size", 1, 4096, 8, &generation_size, error) ||
        !field_u64(doc, "max_family", 1, 64, 4, &max_family, error) ||
        !field_u64(doc, "master_seed", 0, UINT64_MAX, 1, &spec.master_seed,
                   error) ||
        !field_u64(doc, "checkpoint_every", 0, 1'000'000, 1,
                   &spec.checkpoint_every, error) ||
        !field_targets(doc, &spec.targets, error)) {
      return false;
    }
    spec.generation_size = static_cast<std::uint32_t>(generation_size);
    spec.max_family = static_cast<std::uint32_t>(max_family);
    const Json* corpus = doc.find("corpus");
    if (corpus != nullptr) {
      if (corpus->kind != Json::Kind::kString ||
          !valid_corpus_name(corpus->str)) {
        *error = "corpus must be a plain name ([A-Za-z0-9._-], no separators)";
        return false;
      }
      spec.corpus = corpus->str;
    }
    const Json* shrink = doc.find("shrink");
    spec.shrink = shrink == nullptr ? true : shrink->as_bool(true);
    return true;
  }
  *error = "unknown kind " + kind->str +
           " (expected run | scenario | campaign | evolve)";
  return false;
}

std::string cache_key(const Request& request) {
  switch (request.kind) {
    case JobKind::kRun:
      // The config was normalized at parse time; config_to_json of a
      // normalized config is its canonical form.
      return "run|" + fuzz::config_to_json(request.config, 0);
    case JobKind::kScenario:
      // Literally the scenario writer's canonical bytes.
      return "scenario|" + scenario::scenario_to_json(request.scenario);
    case JobKind::kCampaign: {
      Json key = Json::object();
      key.set("master_seed", Json::of_u64(request.campaign.master_seed));
      key.set("runs", Json::of_u64(request.campaign.runs));
      Json targets = Json::array();
      for (const fuzz::TargetKind target : request.campaign.targets) {
        targets.push(Json::of_string(to_string(target)));
      }
      key.set("targets", std::move(targets));
      key.set("shrink", Json::of_bool(request.campaign.shrink));
      return "campaign|" + key.dump(0);
    }
    case JobKind::kEvolve:
      // Uncacheable: the campaign folds in (and rewrites) its on-disk
      // corpus, so two identical submissions legitimately differ.
      return std::string();
  }
  return std::string();
}

std::string execute_request(const Request& request,
                            const ExecuteHooks& hooks) {
  switch (request.kind) {
    case JobKind::kRun: {
      const fuzz::FuzzConfig config = fuzz::normalize(request.config);
      return run_payload(config, fuzz::run_config(config));
    }
    case JobKind::kScenario: {
      return scenario_payload(request.scenario,
                              scenario::run_scenario_fuzz(request.scenario));
    }
    case JobKind::kCampaign: {
      const CampaignSpec& spec = request.campaign;
      fuzz::CampaignOptions options;
      options.master_seed = spec.master_seed;
      options.runs = spec.runs;
      options.threads = std::max(1, hooks.campaign_threads);
      options.targets = spec.targets;
      options.shrink = spec.shrink;
      options.metrics = hooks.metrics;
      options.abort = hooks.abort;
      if (hooks.progress) {
        options.on_progress = [&hooks](std::uint64_t completed,
                                       std::uint64_t total,
                                       std::uint64_t /*elapsed_ms*/) {
          hooks.progress("campaign", completed, total);
        };
      }
      return campaign_payload(fuzz::run_fuzz_campaign(options));
    }
    case JobKind::kEvolve: {
      const EvolveSpec& spec = request.evolve;
      fuzz::EvolveOptions options;
      options.master_seed = spec.master_seed;
      options.generations = spec.generations;
      options.generation_size = spec.generation_size;
      options.max_family = spec.max_family;
      // A multithreaded daemon must not fork evolve workers; jobs = 1 is
      // bit-identical to any other width by the jobs contract.
      options.jobs = 1;
      options.targets = spec.targets;
      if (!spec.corpus.empty() && !hooks.corpus_root.empty()) {
        options.corpus_dir = hooks.corpus_root + "/" + spec.corpus;
      }
      options.checkpoint_every = spec.checkpoint_every;
      options.shrink = spec.shrink;
      options.metrics = hooks.metrics;
      options.abort = hooks.abort;
      if (hooks.progress) {
        const std::uint64_t total = spec.generations;
        options.on_generation = [&hooks, total](
                                    std::uint64_t generation,
                                    const fuzz::EvolveStats& /*so_far*/) {
          hooks.progress("evolve", generation + 1, total);
        };
      }
      return evolve_payload(fuzz::run_evolve_campaign(options));
    }
  }
  return "{}";
}

// --- Server ----------------------------------------------------------------

Server::Session::~Session() {
#ifdef WFD_SERVE_POSIX
  if (reader.joinable()) reader.detach();  // safety valve; drain joins first
  if (fd >= 0) ::close(fd);
#endif
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      id_requests_(registry_.counter("serve.requests")),
      id_accepted_(registry_.counter("serve.accepted")),
      id_rejected_backpressure_(
          registry_.counter("serve.rejected.backpressure")),
      id_rejected_draining_(registry_.counter("serve.rejected.draining")),
      id_rejected_invalid_(registry_.counter("serve.rejected.invalid")),
      id_cache_hits_(registry_.counter("serve.cache.hits")),
      id_cache_misses_(registry_.counter("serve.cache.misses")),
      id_jobs_completed_(registry_.counter("serve.jobs.completed")),
      id_jobs_cancelled_(registry_.counter("serve.jobs.cancelled")),
      id_clients_accepted_(registry_.counter("serve.clients.accepted")),
      id_clients_disconnected_(
          registry_.counter("serve.clients.disconnected")),
      id_queue_depth_(registry_.gauge("serve.queue.depth")),
      id_active_jobs_(registry_.gauge("serve.jobs.active")) {}

Server::~Server() {
#ifdef WFD_SERVE_POSIX
  if (!workers_.empty() || !sessions_.empty()) drain();
  for (const int fd : {drain_pipe_[0], drain_pipe_[1]}) {
    if (fd >= 0) ::close(fd);
  }
#endif
}

void Server::narrate(const std::string& message) {
  if (options_.narrate) options_.narrate(message);
}

#ifdef WFD_SERVE_POSIX

bool Server::listen_unix(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
    *error = "unix socket path too long: " + options_.unix_path;
    return false;
  }
  std::memcpy(addr.sun_path, options_.unix_path.c_str(),
              options_.unix_path.size() + 1);
  listen_unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_unix_fd_ < 0) {
    *error = "socket(AF_UNIX) failed: " + std::string(std::strerror(errno));
    return false;
  }
  // A stale path from a killed daemon would make bind fail forever; the
  // daemon owns its configured path, so replacing it is the right call.
  ::unlink(options_.unix_path.c_str());
  if (::bind(listen_unix_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_unix_fd_, 64) != 0) {
    *error = "bind/listen on " + options_.unix_path +
             " failed: " + std::string(std::strerror(errno));
    return false;
  }
  unix_bound_ = true;
  return true;
}

bool Server::listen_tcp(std::string* error) {
  listen_tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_tcp_fd_ < 0) {
    *error = "socket(AF_INET) failed: " + std::string(std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, always
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
  if (::bind(listen_tcp_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_tcp_fd_, 64) != 0) {
    *error = "bind/listen on tcp port " + std::to_string(options_.tcp_port) +
             " failed: " + std::string(std::strerror(errno));
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_tcp_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0) {
    tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  return true;
}

bool Server::start(std::string* error) {
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    *error = "no listener configured (need a unix path or a tcp port)";
    return false;
  }
  if (::pipe(drain_pipe_) != 0) {
    *error = "pipe() failed: " + std::string(std::strerror(errno));
    return false;
  }
  if (!options_.unix_path.empty() && !listen_unix(error)) return false;
  if (options_.tcp_port >= 0 && !listen_tcp(error)) return false;
  const int workers = std::clamp(options_.workers, 0, 256);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  return true;
}

void Server::request_drain() {
  if (drain_pipe_[1] >= 0) {
    const char byte = 1;
    for (;;) {
      if (::write(drain_pipe_[1], &byte, 1) >= 0 || errno != EINTR) break;
    }
  }
}

void Server::run() {
  std::vector<pollfd> fds;
  fds.push_back({drain_pipe_[0], POLLIN, 0});
  if (listen_unix_fd_ >= 0) fds.push_back({listen_unix_fd_, POLLIN, 0});
  if (listen_tcp_fd_ >= 0) fds.push_back({listen_tcp_fd_, POLLIN, 0});
  for (;;) {
    for (pollfd& p : fds) p.revents = 0;
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      narrate(std::string("poll failed: ") + std::strerror(errno));
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // the drain byte
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) != 0) accept_client(fds[i].fd);
    }
    reap_sessions(false);
  }
  drain();
}

void Server::accept_client(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return;
  auto session = std::make_shared<Session>();
  session->fd = fd;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session->id = ++next_session_id_;
    sessions_.push_back(session);
  }
  session->reader =
      std::thread([this, session] { session_main(session); });
}

void Server::reap_sessions(bool final_join) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (final_join) {
    for (const auto& session : sessions_) {
      session->gone.store(true, std::memory_order_release);
      ::shutdown(session->fd, SHUT_RDWR);
    }
    for (const auto& session : sessions_) {
      if (session->reader.joinable()) session->reader.join();
    }
    sessions_.clear();
    return;
  }
  for (std::size_t i = 0; i < sessions_.size();) {
    if (sessions_[i]->reader_done.load(std::memory_order_acquire)) {
      if (sessions_[i]->reader.joinable()) sessions_[i]->reader.join();
      // The fd closes when the last reference drops (queued jobs may still
      // hold one; their worker writes then fail cleanly on the shut-down
      // socket).
      sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

bool Server::session_write(Session& session, const std::string& line) {
  if (session.gone.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(session.write_mu);
  return session_write_locked(session, line);
}

bool Server::session_write_locked(Session& session, const std::string& line) {
  if (session.gone.load(std::memory_order_acquire)) return false;
  if (!write_line(session.fd, line)) {
    // EPIPE and friends: the peer is gone. Mark the session so its queued
    // and running jobs cancel, and wake its (possibly blocked) reader.
    session.gone.store(true, std::memory_order_release);
    ::shutdown(session.fd, SHUT_RDWR);
    return false;
  }
  return true;
}

void Server::session_main(std::shared_ptr<Session> session) {
  obs::Scope scope(registry_);
  scope.add(id_clients_accepted_);
  narrate("client " + std::to_string(session->id) + " connected");
  LineReader reader(session->fd, options_.max_line_bytes);
  std::string line;
  for (;;) {
    const LineReader::Status status = reader.next(&line);
    if (status == LineReader::Status::kLine) {
      if (line.empty()) continue;
      handle_line(session, line, scope);
      if (session->gone.load(std::memory_order_acquire)) break;
      continue;
    }
    if (status == LineReader::Status::kTooLong) {
      obs::JsonObject out;
      out.field("type", "error")
          .field("error", "request line exceeds the size limit");
      session_write(*session, out.str());
    }
    break;
  }
  session->gone.store(true, std::memory_order_release);
  ::shutdown(session->fd, SHUT_RDWR);
  scope.add(id_clients_disconnected_);
  narrate("client " + std::to_string(session->id) + " disconnected");
  session->reader_done.store(true, std::memory_order_release);
}

void Server::handle_line(const std::shared_ptr<Session>& session,
                         const std::string& line, obs::Scope& scope) {
  Json doc;
  std::string error;
  if (!Json::parse(line, &doc, &error)) {
    scope.add(id_rejected_invalid_);
    obs::JsonObject out;
    out.field("type", "error").field("error", "bad JSON: " + error);
    session_write(*session, out.str());
    return;
  }
  const Json* type = doc.find("type");
  const std::string type_name =
      type == nullptr ? std::string() : type->as_string(std::string());
  if (type_name == "ping") {
    session_write(*session, "{\"type\":\"pong\"}");
    return;
  }
  if (type_name == "stats") {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      registry_.set_gauge(id_queue_depth_,
                          static_cast<double>(queue_.size()));
    }
    registry_.set_gauge(id_active_jobs_,
                        static_cast<double>(active_jobs_.load()));
    obs::JsonObject out;
    out.field("type", "stats").raw("registry",
                                   registry_.snapshot().to_json());
    session_write(*session, out.str());
    return;
  }
  if (type_name != "submit") {
    scope.add(id_rejected_invalid_);
    obs::JsonObject out;
    out.field("type", "error")
        .field("error", "unknown type " + type_name +
                            " (expected submit | stats | ping)");
    session_write(*session, out.str());
    return;
  }
  scope.add(id_requests_);
  Job job;
  job.session = session;
  if (!parse_submit(doc, &job.request, &error)) {
    scope.add(id_rejected_invalid_);
    obs::JsonObject out;
    out.field("type", "error").field("error", error);
    session_write(*session, out.str());
    return;
  }
  job.key = cache_key(job.request);
  if (!job.key.empty()) {
    std::string payload;
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      const auto hit = cache_.find(job.key);
      if (hit != cache_.end()) payload = hit->second;
    }
    if (!payload.empty()) {
      // Cache hit: answer instantly, never touching the admission queue.
      scope.add(id_cache_hits_);
      const std::uint64_t id = next_job_id_.fetch_add(1) + 1;
      obs::JsonObject accepted;
      accepted.field("type", "accepted").field("job", id);
      if (!job.request.tag.empty()) accepted.field("tag", job.request.tag);
      std::size_t depth;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        depth = queue_.size();
      }
      accepted.field("queue_depth", depth);
      session_write(*session, accepted.str());
      obs::JsonObject result;
      result.field("type", "result").field("job", id);
      if (!job.request.tag.empty()) result.field("tag", job.request.tag);
      result.field("cached", true).raw("payload", payload);
      session_write(*session, result.str());
      return;
    }
    scope.add(id_cache_misses_);
  }
  // The session's write_mu is held from here until the admission reply is
  // on the wire: a worker that dequeues this job writes its progress and
  // result under the same mutex, so `accepted` always comes first. Lock
  // order is write_mu, then queue_mu_; workers never hold queue_mu_ while
  // writing.
  std::lock_guard<std::mutex> write_lock(session->write_mu);
  const auto reject = [&](const char* reason, const std::string& detail) {
    obs::JsonObject out;
    out.field("type", "rejected").field("reason", reason);
    if (!job.request.tag.empty()) out.field("tag", job.request.tag);
    out.field("detail", detail);
    session_write_locked(*session, out.str());
  };
  if (draining_.load(std::memory_order_acquire)) {
    scope.add(id_rejected_draining_);
    reject("draining", "daemon is draining; resubmit elsewhere");
    return;
  }
  std::size_t depth = 0;
  const std::string tag = job.request.tag;
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_closed_) {
      scope.add(id_rejected_draining_);
      reject("draining", "daemon is draining; resubmit elsewhere");
      return;
    }
    if (queue_.size() >= options_.queue_capacity) {
      scope.add(id_rejected_backpressure_);
      reject("backpressure",
             "admission queue full (" +
                 std::to_string(options_.queue_capacity) + " jobs)");
      return;
    }
    id = next_job_id_.fetch_add(1) + 1;
    job.id = id;
    queue_.push_back(std::move(job));
    depth = queue_.size();
    registry_.set_gauge(id_queue_depth_, static_cast<double>(depth));
  }
  queue_cv_.notify_one();
  scope.add(id_accepted_);
  obs::JsonObject out;
  out.field("type", "accepted").field("job", id);
  if (!tag.empty()) out.field("tag", tag);
  out.field("queue_depth", depth);
  session_write_locked(*session, out.str());
}

void Server::worker_main() {
  obs::Scope scope(registry_);
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      registry_.set_gauge(id_queue_depth_,
                          static_cast<double>(queue_.size()));
    }
    if (job.session->gone.load(std::memory_order_acquire)) {
      scope.add(id_jobs_cancelled_);
      continue;
    }
    active_jobs_.fetch_add(1, std::memory_order_relaxed);
    registry_.set_gauge(id_active_jobs_,
                        static_cast<double>(active_jobs_.load()));
    ExecuteHooks hooks;
    hooks.abort = &job.session->gone;
    hooks.metrics = &registry_;
    hooks.campaign_threads = options_.campaign_threads;
    hooks.corpus_root = options_.corpus_root;
    Session& session = *job.session;
    const std::uint64_t job_id = job.id;
    hooks.progress = [this, &session, job_id](const char* phase,
                                              std::uint64_t completed,
                                              std::uint64_t total) {
      obs::JsonObject out;
      out.field("type", "progress")
          .field("job", job_id)
          .field("phase", phase)
          .field("completed", completed)
          .field("total", total);
      session_write(session, out.str());
    };
    const std::string payload = execute_request(job.request, hooks);
    const bool aborted = job.session->gone.load(std::memory_order_acquire);
    if (!job.key.empty() && !aborted) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      if (cache_.emplace(job.key, payload).second) {
        cache_order_.push_back(job.key);
        while (cache_order_.size() > options_.cache_capacity) {
          cache_.erase(cache_order_.front());
          cache_order_.pop_front();
        }
      }
    }
    active_jobs_.fetch_sub(1, std::memory_order_relaxed);
    registry_.set_gauge(id_active_jobs_,
                        static_cast<double>(active_jobs_.load()));
    if (aborted) {
      scope.add(id_jobs_cancelled_);
      continue;
    }
    obs::JsonObject out;
    out.field("type", "result").field("job", job.id);
    if (!job.request.tag.empty()) out.field("tag", job.request.tag);
    out.field("cached", false).raw("payload", payload);
    session_write(*job.session, out.str());
    scope.add(id_jobs_completed_);
  }
}

void Server::drain() {
  if (draining_.exchange(true)) {
    // Second entry (destructor after run()): nothing left to do.
    if (workers_.empty() && sessions_.empty()) return;
  }
  narrate("draining: closing listeners, finishing queued jobs");
  for (int* fd : {&listen_unix_fd_, &listen_tcp_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  if (unix_bound_) {
    ::unlink(options_.unix_path.c_str());
    unix_bound_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    // workers == 0 (admission-only mode) leaves queued jobs nobody will
    // run; drop them so drain terminates.
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.clear();
    registry_.set_gauge(id_queue_depth_, 0.0);
  }
  reap_sessions(true);
  narrate("drain complete");
}

#else  // !WFD_SERVE_POSIX

bool Server::start(std::string* error) {
  *error = "wfd_serve requires a POSIX socket layer";
  return false;
}
void Server::run() {}
void Server::request_drain() {}
void Server::drain() {}
void Server::accept_client(int) {}
void Server::reap_sessions(bool) {}
void Server::session_main(std::shared_ptr<Session>) {}
void Server::handle_line(const std::shared_ptr<Session>&, const std::string&,
                         obs::Scope&) {}
void Server::worker_main() {}
bool Server::session_write(Session&, const std::string&) { return false; }
bool Server::session_write_locked(Session&, const std::string&) {
  return false;
}
bool Server::listen_unix(std::string*) { return false; }
bool Server::listen_tcp(std::string*) { return false; }

#endif  // WFD_SERVE_POSIX

}  // namespace wfd::serve
