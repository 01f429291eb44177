#include "core.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fuzz/config.hpp"
#include "fuzz/fuzzer.hpp"
#include "util/json.hpp"

namespace perfbench {

using wfd::util::Json;

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  rng.next();
  return rng.next();
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kRun: return "run";
    case Kind::kScenario: return "scenario";
    case Kind::kCampaign: return "campaign";
    case Kind::kEvolve: return "evolve";
  }
  return "?";
}

std::string one_line(const std::string& json_text) {
  Json doc;
  std::string error;
  if (!Json::parse(json_text, &doc, &error)) {
    throw std::runtime_error("generator produced invalid JSON: " + error);
  }
  return doc.dump(0);
}

namespace {

std::vector<wfd::fuzz::TargetKind> all_targets() {
  std::vector<wfd::fuzz::TargetKind> pool;
  std::string error;
  if (!wfd::fuzz::resolve_target_pool({"all"}, &pool, &error)) {
    throw std::runtime_error("target pool: " + error);
  }
  return pool;
}

std::string quoted(const std::string& text) {
  return Json::of_string(text).dump(0);
}

std::string submit_head(const char* kind, const std::string& tag) {
  return std::string("{\"type\":\"submit\",\"kind\":\"") + kind +
         "\",\"tag\":" + quoted(tag);
}

std::string run_line(const std::string& tag, std::uint64_t master,
                     std::uint64_t index) {
  static const std::vector<wfd::fuzz::TargetKind> pool = all_targets();
  const wfd::fuzz::FuzzConfig config =
      wfd::fuzz::sample_config(master, index, pool);
  return submit_head("run", tag) + ",\"config\":" +
         one_line(wfd::fuzz::config_to_json(config, 0)) + "}";
}

std::string scenario_line(const std::string& tag,
                          const wfd::scenario::Scenario& scenario) {
  return submit_head("scenario", tag) + ",\"scenario\":" +
         one_line(wfd::scenario::scenario_to_json(scenario)) + "}";
}

std::string campaign_line(const std::string& tag, std::uint64_t master) {
  return submit_head("campaign", tag) +
         ",\"runs\":16,\"master_seed\":" + std::to_string(master) +
         ",\"targets\":\"all\",\"shrink\":true}";
}

std::string evolve_line(const std::string& tag, std::uint64_t master) {
  return submit_head("evolve", tag) +
         ",\"generations\":2,\"gen_size\":8,\"master_seed\":" +
         std::to_string(master) + ",\"targets\":\"all\"}";
}

}  // namespace

FreshStream::FreshStream(std::uint64_t seed, int connection,
                         const std::vector<wfd::scenario::Scenario>* vectors)
    : seed_(derive_seed(seed, 100 + static_cast<std::uint64_t>(connection))),
      connection_(connection),
      vectors_(vectors),
      order_(derive_seed(seed_, 1)) {
  if (vectors_ == nullptr || vectors_->empty()) {
    throw std::runtime_error("serve_fresh needs the conformance vectors");
  }
}

Request FreshStream::make(Kind kind, std::uint64_t index) {
  Request request;
  request.kind = kind;
  request.tag = "c" + std::to_string(connection_) + "." +
                std::to_string(index);
  // Sub-seeds are distinct per (connection seed, index), so no two
  // requests of a run share a cache key.
  Rng pick(derive_seed(seed_, 1000 + index));
  switch (kind) {
    case Kind::kRun:
      request.line = run_line(request.tag, seed_, index);
      break;
    case Kind::kScenario: {
      wfd::scenario::Scenario scenario =
          (*vectors_)[pick.below(vectors_->size())];
      scenario.expect_fuzz.seeds.clear();
      for (int s = 0; s < 3; ++s) {
        scenario.expect_fuzz.seeds.push_back(1 + pick.below(1u << 30));
      }
      request.line = scenario_line(request.tag, scenario);
      break;
    }
    case Kind::kCampaign:
      request.line = campaign_line(request.tag, pick.next());
      break;
    case Kind::kEvolve:
      request.line = evolve_line(request.tag, pick.next());
      break;
  }
  return request;
}

Request FreshStream::next() {
  if (cursor_ == block_.size()) {
    block_.clear();
    block_.insert(block_.end(), 24, Kind::kRun);
    block_.insert(block_.end(), 6, Kind::kScenario);
    block_.push_back(Kind::kCampaign);
    block_.push_back(Kind::kEvolve);
    for (std::size_t i = block_.size() - 1; i > 0; --i) {
      std::swap(block_[i], block_[order_.below(i + 1)]);
    }
    cursor_ = 0;
  }
  return make(block_[cursor_++], made_++);
}

Request FreshStream::warmup(
    int connection, Kind kind,
    const std::vector<wfd::scenario::Scenario>* vectors) {
  // The same requests for every seed, so set-up time compares across
  // seeds (a campaign's cost depends on the failures its seed finds);
  // indices from the top of the space never meet next()'s.
  FreshStream fixed(kWarmupSeed, connection, vectors);
  return fixed.make(kind, (std::uint64_t{1} << 62) + static_cast<int>(kind));
}

std::vector<McScenario> mc_scenarios(std::uint64_t seed) {
  Rng rng(derive_seed(seed, 300));
  static const char* const kGraphs[] = {"ring", "clique", "star", "path"};
  // Two-pair state spaces of the extraction abstraction, per regime.
  static const std::pair<const char*, std::uint64_t> kRegimes[] = {
      {"excl", 516961},
      {"arb", 1742400},
      {"excl_crash", 4389025},
      {"arb_crash", 8340544}};
  std::vector<McScenario> out;
  for (const auto& [regime, states] : kRegimes) {
    const std::string name = regime;
    const bool arbitrary = name.rfind("arb", 0) == 0;
    const bool crash = name.find("crash") != std::string::npos;
    const std::uint64_t min = rng.range(1, 4);
    std::string text =
        "{\"schema_version\":1,\"name\":\"mc-" + name + "-" +
        std::to_string(seed) + "\",\"seed\":" +
        std::to_string(rng.range(1, 1u << 30)) +
        ",\"target\":\"extraction\",\"topology\":{\"graph\":\"" +
        kGraphs[rng.below(4)] + "\",\"n\":3},\"steps\":" +
        std::to_string(rng.range(40000, 90000)) +
        ",\"scheduler\":{\"kind\":\"random\"},\"timing\":{\"delay\":"
        "\"uniform\",\"min\":" +
        std::to_string(min) + ",\"max\":" +
        std::to_string(min + rng.range(0, 8)) + "}";
    if (arbitrary) {
      const std::uint64_t watcher = rng.below(3);
      const std::uint64_t subject = (watcher + 1 + rng.below(2)) % 3;
      const std::uint64_t from = rng.range(10, 2000);
      text += ",\"mistake_windows\":[{\"watcher\":" + std::to_string(watcher) +
              ",\"subject\":" + std::to_string(subject) +
              ",\"from\":" + std::to_string(from) +
              ",\"until\":" + std::to_string(from + rng.range(50, 3000)) +
              "}]";
    }
    if (crash) {
      text += ",\"crashes\":[{\"pid\":" + std::to_string(rng.below(3)) +
              ",\"at\":" + std::to_string(rng.range(1000, 20000)) + "}]";
    }
    text += ",\"expect\":{\"mc\":{\"verdict\":\"clean\"}}}";
    out.push_back({name, std::move(text), states});
  }
  return out;
}

// --- response scanning --------------------------------------------------------

namespace {

struct Scanner {
  std::string_view s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n')) {
      ++i;
    }
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  /// A string token; *out is its raw content (escapes left as written).
  bool string(std::string_view* out) {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    const std::size_t start = ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) return false;
    *out = s.substr(start, i - start);
    ++i;
    return true;
  }
  /// Skip one value; *out is its raw text.
  bool value(std::string_view* out) {
    ws();
    const std::size_t start = i;
    if (i >= s.size()) return false;
    if (s[i] == '"') {
      std::string_view ignored;
      if (!string(&ignored)) return false;
    } else if (s[i] == '{' || s[i] == '[') {
      int depth = 0;
      while (i < s.size()) {
        const char c = s[i];
        if (c == '"') {
          std::string_view ignored;
          if (!string(&ignored)) return false;
          continue;
        }
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
        ++i;
        if (depth == 0) break;
      }
      if (depth != 0) return false;
    } else {
      while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
             s[i] != ' ') {
        ++i;
      }
      if (i == start) return false;
    }
    *out = s.substr(start, i - start);
    return true;
  }
};

}  // namespace

bool scan_response(std::string_view line, Response* out) {
  *out = Response{};
  Scanner sc{line};
  if (!sc.eat('{')) return false;
  if (sc.eat('}')) return true;
  for (;;) {
    std::string_view key;
    std::string_view value;
    if (!sc.string(&key) || !sc.eat(':') || !sc.value(&value)) return false;
    const bool quoted_value = value.size() >= 2 && value.front() == '"';
    if (key == "type" && quoted_value) {
      out->type = value.substr(1, value.size() - 2);
    } else if (key == "tag" && quoted_value) {
      out->tag = value.substr(1, value.size() - 2);
    } else if (key == "payload") {
      out->payload = value;
    } else if (key == "cached") {
      out->has_cached = value == "true" || value == "false";
      out->cached = value == "true";
    } else if (key == "job") {
      std::uint64_t job = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') return false;
        job = job * 10 + static_cast<std::uint64_t>(c - '0');
      }
      out->job = job;
      out->has_job = true;
    }
    if (sc.eat(',')) continue;
    if (!sc.eat('}')) return false;
    sc.ws();
    return sc.i == line.size();
  }
}

// --- LineConn -------------------------------------------------------------------

LineConn::~LineConn() { close(); }

void LineConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool LineConn::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  close();
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    return false;
  }
  return true;
}

bool LineConn::send_line(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  std::size_t done = 0;
  while (done < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + done, framed.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  bytes_out_ += framed.size();
  return true;
}

LineConn::Status LineConn::next(std::string* line, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buffer_.find('\n', start_);
    if (nl != std::string::npos) {
      line->assign(buffer_, start_, nl - start_);
      start_ = nl + 1;
      if (start_ == buffer_.size()) {
        buffer_.clear();
        start_ = 0;
      }
      return Status::kLine;
    }
    if (start_ > 0) {
      buffer_.erase(0, start_);
      start_ = 0;
    }
    if (fd_ < 0) return Status::kEof;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return Status::kTimeout;
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) return Status::kTimeout;
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::kEof;
    bytes_in_ += static_cast<std::uint64_t>(n);
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

// --- the job exchange -------------------------------------------------------------

const char* failure_name(Failure failure) {
  switch (failure) {
    case Failure::kNone: return "none";
    case Failure::kError: return "error";
    case Failure::kRejected: return "rejected";
    case Failure::kEof: return "eof";
    case Failure::kProtocol: return "protocol";
    case Failure::kMismatch: return "mismatch";
    case Failure::kCached: return "cached";
    case Failure::kVerdict: return "verdict";
  }
  return "?";
}

JobRecord exchange(LineConn& conn, const Request& request, int timeout_ms) {
  JobRecord rec;
  rec.kind = request.kind;
  const std::uint64_t in0 = conn.bytes_in();
  const std::uint64_t out0 = conn.bytes_out();
  rec.submit = Clock::now();
  if (!conn.send_line(request.line)) {
    rec.failure = Failure::kEof;
    return rec;
  }
  rec.bytes_out = conn.bytes_out() - out0;
  // One job is outstanding per connection, so every line read until both
  // its accepted and its result line arrived belongs to it. The daemon
  // writes accepted from the session thread after enqueueing, so a quick
  // worker's progress and result lines can overtake it; any order of the
  // three kinds is accepted, and the result's arrival is the latency.
  bool accepted = false;
  bool resulted = false;
  std::uint64_t accepted_job = 0;
  std::uint64_t result_job = 0;
  std::string line;
  while (!(accepted && resulted)) {
    if (conn.next(&line, timeout_ms) != LineConn::Status::kLine) {
      rec.failure = Failure::kEof;
      break;
    }
    const Clock::time_point now = Clock::now();
    Response resp;
    if (!scan_response(line, &resp)) {
      rec.failure = Failure::kProtocol;
      break;
    }
    if (resp.type == "error") {
      rec.failure = Failure::kError;
      break;
    }
    if (resp.type == "rejected") {
      rec.failure = Failure::kRejected;
      break;
    }
    if (resp.type == "accepted" && !accepted && resp.has_job &&
        resp.tag == request.tag) {
      accepted = true;
      accepted_job = resp.job;
      rec.accepted = now;
      rec.accepted_late = resulted;
      continue;
    }
    if (resp.type == "progress" && !resulted && resp.has_job &&
        (!accepted || resp.job == accepted_job)) {
      ++rec.progress_lines;
      continue;
    }
    if (resp.type == "result" && !resulted && resp.has_job &&
        resp.tag == request.tag && resp.has_cached && !resp.payload.empty()) {
      resulted = true;
      result_job = resp.job;
      rec.result = now;
      rec.cached = resp.cached;
      rec.payload.assign(resp.payload);
      continue;
    }
    rec.failure = Failure::kProtocol;
    break;
  }
  if (rec.failure == Failure::kNone && accepted_job != result_job) {
    rec.failure = Failure::kProtocol;
  }
  rec.bytes_in = conn.bytes_in() - in0;
  return rec;
}

void Tally::add(Failure failure) {
  ++attempted_;
  if (failure != Failure::kNone) {
    ++failed_;
    ++reasons_[failure_name(failure)];
  }
}

void Tally::fail_after(Failure* recorded, Failure failure) {
  if (*recorded != Failure::kNone || failure == Failure::kNone) return;
  *recorded = failure;
  ++failed_;
  ++reasons_[failure_name(failure)];
}

// --- statistics -------------------------------------------------------------------

std::optional<double> percentile(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p >= 100.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double peak_rss_mb(long pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
