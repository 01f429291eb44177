// wfd_perfbench: one workload of the repo benchmark, end to end.
//
//   wfd_perfbench --workload serve_fresh|mc_check --seed N
//                 --seconds S --trace 0|1 --serve PATH/wfd_serve
//                 --vectors tests/vectors --out-dir DIR
//
// perfbench/run.py builds the repository and this binary, then runs it from
// the checkout root; see perfbench/NOTES.md for why each workload and
// metric exists. serve_fresh drives the real wfd_serve binary over its
// unix socket, closed loop, two connections; mc_check calls the public
// scenario/mc entry points in process on one thread. Every output is
// checked after the timed phase; the last stdout line is the JSON result
// (end-to-end metrics, or with --trace 1 the per-layer metrics).
#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core.hpp"
#include "fuzz/config.hpp"
#include "fuzz/oracles.hpp"
#include "mc/model.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scenario/adapters.hpp"
#include "scenario/scenario.hpp"
#include "serve/serve.hpp"
#include "util/json.hpp"

namespace pb = perfbench;
using pb::Clock;
using pb::Kind;
using wfd::util::Json;

namespace {

constexpr int kConnections = 2;
constexpr int kWorkers = 2;
constexpr int kSetups = 11;
constexpr int kReplyTimeoutMs = 120000;
constexpr std::uint64_t kTraceJobs = 5000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "wfd_perfbench: %s\n"
               "usage: wfd_perfbench --workload serve_fresh|mc_check "
               "--seed N --seconds S --trace 0|1\n"
               "                     --serve WFD_SERVE --vectors DIR "
               "--out-dir DIR\n",
               why.c_str());
  std::exit(2);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;
  std::string vectors_dir;
  std::string out_dir;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      errno = 0;
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        usage("--seed must be a whole number");
      }
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 3600) {
        usage("--seconds must be in (0, 3600]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--serve") {
      opt.serve_binary = value;
    } else if (arg == "--vectors") {
      opt.vectors_dir = value;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (opt.workload != "serve_fresh" && opt.workload != "mc_check") {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!have_seed || !have_seconds) usage("--seed and --seconds are required");
  if (opt.out_dir.empty()) usage("--out-dir is required");
  if (opt.workload != "mc_check" &&
      (opt.serve_binary.empty() || opt.vectors_dir.empty())) {
    usage("serve_fresh needs --serve and --vectors");
  }
  return opt;
}

// --- results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  std::vector<Metric> e2e;        ///< untraced end-to-end, BENCHMARK.json
  std::vector<Metric> e2e_extra;  ///< end-to-end figures of one workload
  std::vector<Metric> e2e_traced; ///< the same figures with tracing on
  std::vector<Metric> layers;     ///< per-layer, from the traced run
  pb::Tally tally;
  std::vector<std::string> problems;  ///< run-level failures

  void problem(const std::string& what) {
    problems.push_back(what);
    std::fprintf(stderr, "wfd_perfbench: FAIL %s\n", what.c_str());
  }
};

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           number(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

// --- spans ----------------------------------------------------------------------

/// One span recorded by the benchmark around a call into the program or
/// around a protocol exchange. pid 1 = the client's view of the daemon
/// (tid = connection), pid 2 = in-process calls (tid 0).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string job;           ///< request tag, or mc regime
  int pid = 1;
  int tid = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Per-thread span buffer; ids are unique across sinks by construction.
class SpanSink {
 public:
  SpanSink(int pid, int tid) : pid_(pid), tid_(tid) {}
  std::uint64_t add(std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    const std::string& job) {
    const std::uint64_t id =
        (static_cast<std::uint64_t>(pid_) << 48) |
        (static_cast<std::uint64_t>(tid_) << 40) | ++count_;
    spans.push_back({std::move(name), id, parent, job, pid_, tid_, start, end});
    return id;
  }
  std::vector<Span> spans;

 private:
  int pid_;
  int tid_;
  std::uint64_t count_ = 0;
};

/// Perfetto / chrome://tracing "trace_event" JSON of every span.
bool write_trace(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point origin) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":"
         "{\"name\":\"client view of wfd_serve\"}},\n";
  out << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":"
         "{\"name\":\"in-process calls\"}}";
  for (const Span& s : spans) {
    const double ts = std::chrono::duration<double, std::micro>(
                          s.start - origin).count();
    const double dur = std::chrono::duration<double, std::micro>(
                           s.end - s.start).count();
    const std::string job = Json::of_string(s.job).dump(0);
    out << ",\n{\"ph\":\"X\",\"name\":\"" << s.name << "\",\"pid\":" << s.pid
        << ",\"tid\":" << s.tid << ",\"ts\":" << number(ts)
        << ",\"dur\":" << number(dur) << ",\"args\":{\"span\":" << s.id
        << ",\"parent\":" << s.parent << ",\"job\":" << job << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

/// Run `fn` `reps` times; returns the median wall time in microseconds.
template <class Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point a = Clock::now();
    fn();
    t.push_back(ms_between(a, Clock::now()) * 1000.0);
  }
  return pb::median(t);
}

// --- CPU placement ------------------------------------------------------------------
// serve_fresh runs the daemon and the client on a fixed set of CPUs
// (NOTES.md, "Noise"): on a shared virtual machine each extra vCPU kept
// busy was paid in time stolen by the hypervisor, and cross-CPU wakeups of
// idle vCPUs in hypervisor scheduling delay.

/// The last `count` CPUs this process may run on (all of them if fewer),
/// with their numbers as text in *names.
cpu_set_t last_cpus(int count, std::string* names) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  cpu_set_t out;
  CPU_ZERO(&out);
  std::vector<int> picked;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &out);
      picked.insert(picked.begin(), cpu);
      --count;
    }
  }
  names->clear();
  for (const int cpu : picked) {
    if (!names->empty()) *names += ',';
    *names += std::to_string(cpu);
  }
  return out;
}

bool pin_thread(const cpu_set_t& cpus) {
  return ::sched_setaffinity(0, sizeof cpus, &cpus) == 0;
}

// --- the daemon -------------------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
  }

  /// Spawn `binary` on unix socket `path`, on `cpus`, and wait for its
  /// ready line.
  bool spawn(const std::string& binary, const std::string& path,
             const cpu_set_t& cpus, std::string* error) {
    path_ = path;
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) {
      *error = "pipe2 failed";
      return false;
    }
    const std::string workers = std::to_string(kWorkers);
    std::vector<std::string> args = {binary,    "--unix",  path, "--workers",
                                     workers, "--quiet"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      *error = "fork failed";
      ::close(out[0]);
      ::close(out[1]);
      return false;
    }
    if (pid == 0) {
      // Die with the benchmark, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      if (!pin_thread(cpus)) ::_exit(126);
      const int devnull = ::open("/dev/null", O_RDONLY);
      if (devnull >= 0) ::dup2(devnull, 0);
      ::dup2(out[1], 1);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    pid_ = pid;
    stdout_fd_ = out[0];
    pb::LineConn reader(::dup(stdout_fd_));
    std::string line;
    if (reader.next(&line, 60000) != pb::LineConn::Status::kLine ||
        line.find("\"type\":\"ready\"") == std::string::npos) {
      *error = "wfd_serve printed no ready line";
      return false;
    }
    return true;
  }

  long pid() const { return pid_; }

  /// SIGTERM, then wait (60 s at most). True iff the daemon exited 0 and
  /// removed its socket.
  bool terminate(std::string* error) {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (done != pid_) {
      *error = "wfd_serve did not exit within 60 s of SIGTERM";
      return false;  // the destructor kills and reaps it
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      *error = "wfd_serve exited with status " + std::to_string(status) +
               " on SIGTERM";
      return false;
    }
    struct stat st;
    if (::stat(path_.c_str(), &st) == 0) {
      *error = "wfd_serve left its socket " + path_ + " behind";
      return false;
    }
    return true;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string path_;
};

/// Host CPU time stolen by the hypervisor, from the "cpu" line of
/// /proc/stat: {steal, total} in clock ticks.
std::pair<double, double> steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double value = 0, total = 0, steal = 0;
  in >> cpu;
  for (int field = 1; field <= 8 && (in >> value); ++field) {
    total += value;
    if (field == 8) steal = value;
  }
  return {steal, total};
}

/// Prints the share of host CPU time stolen since `since`.
void print_steal(const std::pair<double, double>& since) {
  const auto now = steal_ticks();
  const double total = now.second - since.second;
  std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the "
              "timed phase\n",
              total > 0 ? 100.0 * (now.first - since.first) / total : 0.0);
}

// --- serve_fresh --------------------------------------------------------------------

struct Done {
  pb::Request request;
  pb::JobRecord record;
  int conn = 0;
  bool traced = false;
};

std::vector<wfd::scenario::Scenario> load_vectors(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 14 &&
        name.compare(name.size() - 14, 14, ".scenario.json") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<wfd::scenario::Scenario> vectors;
  for (const std::string& path : paths) {
    wfd::scenario::Scenario scenario;
    std::string error;
    if (!wfd::scenario::load_scenario_file(path, &scenario, &error)) {
      throw std::runtime_error("vector " + path + ": " + error);
    }
    if (scenario.supports_fuzz()) vectors.push_back(std::move(scenario));
  }
  if (vectors.empty()) throw std::runtime_error("no vectors in " + dir);
  return vectors;
}

/// Registry counters from a {"type":"stats"} exchange; empty on failure.
std::map<std::string, double> daemon_stats(pb::LineConn& conn) {
  std::map<std::string, double> out;
  std::string line;
  if (!conn.send_line("{\"type\":\"stats\"}") ||
      conn.next(&line, kReplyTimeoutMs) != pb::LineConn::Status::kLine) {
    return out;
  }
  Json doc;
  std::string error;
  if (!Json::parse(line, &doc, &error)) return out;
  const Json* registry = doc.find("registry");
  if (registry == nullptr || registry->kind != Json::Kind::kObject) return out;
  for (const auto& [name, value] : registry->members) {
    if (value.kind == Json::Kind::kNumber) out[name] = value.as_double();
  }
  return out;
}

double counter_delta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

/// A count field of a result payload; 0 when absent.
double count_field(const Json& payload, const char* name) {
  const Json* field =
      payload.kind == Json::Kind::kObject ? payload.find(name) : nullptr;
  return field == nullptr ? 0.0 : static_cast<double>(field->as_u64());
}

/// Graded simulator runs behind one fresh payload (shrink runs excluded).
double graded_runs(Kind kind, const Json& payload) {
  switch (kind) {
    case Kind::kRun: return 1;
    case Kind::kScenario: {
      const Json* seeds = payload.find("seeds");
      return seeds == nullptr ? 0.0 : static_cast<double>(seeds->items.size());
    }
    case Kind::kCampaign:
    case Kind::kEvolve: return count_field(payload, "executed");
  }
  return 0;
}

/// Per-layer samples gathered from in-process calls on request lines.
struct Layers {
  std::vector<double> json_parse_us, json_dump_us, parse_submit_us,
      cache_key_us, scenario_parse_us, scenario_write_us, config_parse_us,
      config_write_us, sweep_ms, run_ms, steps_per_s, batch_ms, generation_ms,
      exec_gap_ms;
};

/// The in-process chain on one request line: util::Json::parse ->
/// serve::parse_submit -> serve::cache_key -> serve::execute_request. With a
/// sink it records spans, times the front-end calls as medians of repeated
/// calls, and calls the public functions beneath each kind once more on
/// their own. Returns the execute payload ("" if the line is refused).
std::string inprocess(const Done& done, Layers* layers, SpanSink* sink,
                      std::string* error) {
  constexpr int kReps = 15;
  const std::string& line = done.request.line;
  const std::string& job = done.request.tag;
  std::size_t root_index = 0;
  std::uint64_t root = 0;
  if (sink != nullptr) {
    root_index = sink->spans.size();
    root = sink->add(std::string("inprocess.") +
                         pb::kind_name(done.request.kind),
                     Clock::now(), Clock::now(), 0, job);
  }
  const auto span = [&](const char* name, Clock::time_point a,
                        std::uint64_t parent) -> std::uint64_t {
    return sink == nullptr ? 0 : sink->add(name, a, Clock::now(), parent, job);
  };

  Json doc;
  std::string err;
  Clock::time_point a = Clock::now();
  if (!Json::parse(line, &doc, &err)) {
    *error = "request line does not parse: " + err;
    return "";
  }
  span("util::Json::parse", a, root);
  wfd::serve::Request request;
  a = Clock::now();
  if (!wfd::serve::parse_submit(doc, &request, &err)) {
    *error = "parse_submit refused a generated request: " + err;
    return "";
  }
  span("serve::parse_submit", a, root);
  a = Clock::now();
  (void)wfd::serve::cache_key(request);
  span("serve::cache_key", a, root);

  wfd::obs::Registry registry;
  std::vector<Clock::time_point> beats;
  wfd::serve::ExecuteHooks hooks;
  hooks.metrics = &registry;
  hooks.campaign_threads = 1;
  hooks.progress = [&beats](const char*, std::uint64_t, std::uint64_t) {
    beats.push_back(Clock::now());
  };
  a = Clock::now();
  const std::string payload = wfd::serve::execute_request(request, hooks);
  const double execute_ms = ms_between(a, Clock::now());
  const std::uint64_t exec = span("serve::execute_request", a, root);
  if (sink != nullptr) {
    // Campaign batches and evolve generations, from the progress hook.
    const bool campaign = done.request.kind == Kind::kCampaign;
    std::vector<double>& spacing =
        campaign ? layers->batch_ms : layers->generation_ms;
    Clock::time_point prev = a;
    for (const Clock::time_point beat : beats) {
      spacing.push_back(ms_between(prev, beat));
      sink->add(campaign ? "harness::campaign_batch (on_progress)"
                         : "fuzz::evolve_generation (on_generation)",
                prev, beat, exec, job);
      prev = beat;
    }
    if (done.record.result > done.record.accepted) {
      layers->exec_gap_ms.push_back(
          ms_between(done.record.accepted, done.record.result) - execute_ms);
    }
  }
  if (sink == nullptr) return payload;

  layers->json_parse_us.push_back(median_us(kReps, [&] {
    Json d;
    std::string e;
    Json::parse(line, &d, &e);
  }));
  layers->parse_submit_us.push_back(median_us(kReps, [&] {
    wfd::serve::Request r;
    std::string e;
    wfd::serve::parse_submit(doc, &r, &e);
  }));
  layers->cache_key_us.push_back(
      median_us(kReps, [&] { (void)wfd::serve::cache_key(request); }));
  if (done.request.kind == Kind::kRun) {
    const std::string text = doc.find("config")->dump(0);
    wfd::fuzz::FuzzConfig config;
    a = Clock::now();
    wfd::fuzz::config_from_json(text, &config, &err);
    span("fuzz::config_from_json", a, root);
    a = Clock::now();
    config = wfd::fuzz::normalize(config);
    span("fuzz::normalize", a, root);
    layers->config_parse_us.push_back(median_us(kReps, [&] {
      wfd::fuzz::FuzzConfig c;
      std::string e;
      wfd::fuzz::config_from_json(text, &c, &e);
    }));
    layers->config_write_us.push_back(median_us(
        kReps, [&] { (void)wfd::fuzz::config_to_json(config, 0); }));
    a = Clock::now();
    const wfd::fuzz::RunResult run = wfd::fuzz::run_config(config);
    const double ms = ms_between(a, Clock::now());
    span("fuzz::run_config", a, root);
    layers->run_ms.push_back(ms);
    layers->steps_per_s.push_back(static_cast<double>(run.stats.steps) /
                                  (ms / 1000.0));
  } else if (done.request.kind == Kind::kScenario) {
    const std::string text = doc.find("scenario")->dump(0);
    wfd::scenario::Scenario scenario;
    a = Clock::now();
    wfd::scenario::parse_scenario(text, &scenario, &err);
    span("scenario::parse_scenario", a, root);
    a = Clock::now();
    (void)wfd::scenario::scenario_to_json(scenario);
    span("scenario::scenario_to_json", a, root);
    layers->scenario_parse_us.push_back(median_us(kReps, [&] {
      wfd::scenario::Scenario s;
      std::string e;
      wfd::scenario::parse_scenario(text, &s, &e);
    }));
    layers->scenario_write_us.push_back(median_us(
        kReps, [&] { (void)wfd::scenario::scenario_to_json(scenario); }));
    a = Clock::now();
    (void)wfd::scenario::run_scenario_fuzz(scenario);
    layers->sweep_ms.push_back(ms_between(a, Clock::now()));
    span("scenario::run_scenario_fuzz", a, root);
  }
  Json reply;
  if (Json::parse(done.record.payload, &reply, &err)) {
    layers->json_dump_us.push_back(
        median_us(kReps, [&] { (void)reply.dump(0); }));
  }
  sink->spans[root_index].end = Clock::now();
  return payload;
}

/// Client-side spans of one exchange: job (submit -> result) with admit
/// (submit -> accepted) and exec (accepted -> result) beneath it.
void client_spans(SpanSink& sink, const Done& done) {
  const pb::JobRecord& r = done.record;
  if (r.failure != pb::Failure::kNone) return;
  const std::uint64_t job = sink.add(
      std::string("job.") + pb::kind_name(done.request.kind), r.submit,
      r.result, 0, done.request.tag);
  sink.add("admit (submit -> accepted)", r.submit, r.accepted, job,
           done.request.tag);
  sink.add("queue+execute (accepted -> result)", r.accepted, r.result, job,
           done.request.tag);
}

/// Indices of up to `quota[kind]` completed jobs of each kind, chosen
/// with a seeded shuffle.
std::vector<std::size_t> seeded_subset(const std::vector<Done>& jobs,
                                       std::uint64_t seed,
                                       const std::array<int, pb::kKinds>& quota) {
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].record.failure == pb::Failure::kNone) pool.push_back(i);
  }
  pb::Rng rng(pb::derive_seed(seed, 400));
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.below(i)]);
  }
  std::array<int, pb::kKinds> taken{};
  std::vector<std::size_t> out;
  for (const std::size_t i : pool) {
    const int k = static_cast<int>(jobs[i].request.kind);
    if (taken[k] < quota[k]) {
      ++taken[k];
      out.push_back(i);
    }
  }
  return out;
}

struct ServeRun {
  std::vector<Done> jobs;   ///< timed phases, in completion order per conn
  double wall_s = 0;        ///< untraced timed wall time
  double wall_traced_s = 0; ///< traced timed wall time
};

void serve_workload(const Options& opt, Report& rep, Layers& layers,
                    std::vector<Span>* all_spans) {
  const std::vector<wfd::scenario::Scenario> vectors =
      load_vectors(opt.vectors_dir);
  const std::string sock =
      opt.out_dir + "/wfd-" + std::to_string(::getpid()) + ".sock";

  // Generated before any timing: the request streams are pure functions
  // of the seed, the warm-up the same for every seed.
  std::vector<pb::FreshStream> streams;
  std::vector<std::vector<pb::Request>> warmup(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    streams.emplace_back(opt.seed, c, &vectors);
    for (int k = 0; k < pb::kKinds; ++k) {
      warmup[c].push_back(
          pb::FreshStream::warmup(c, static_cast<Kind>(k), &vectors));
    }
  }

  // Two CPUs: one per worker; the session and client threads share them.
  std::string serve_names;
  const cpu_set_t serve_cpus = last_cpus(kWorkers, &serve_names);
  std::printf("cpus: daemon and client on CPUs %s\n", serve_names.c_str());

  // --- set-up, several times; the last daemon is the one timed ---
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<pb::LineConn>> conns;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>();
    std::string error;
    if (!daemon->spawn(opt.serve_binary, sock, serve_cpus, &error)) {
      throw std::runtime_error(error);
    }
    conns.clear();
    for (int c = 0; c < kConnections; ++c) {
      conns.push_back(std::make_unique<pb::LineConn>());
      if (!conns.back()->connect_unix(sock)) {
        throw std::runtime_error("cannot connect to " + sock);
      }
    }
    std::vector<std::vector<Done>> warm(kConnections);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        pin_thread(serve_cpus);
        for (const pb::Request& r : warmup[c]) {
          warm[c].push_back({r, pb::exchange(*conns[c], r, kReplyTimeoutMs), c});
          const pb::Failure f = warm[c].back().record.failure;
          if (f == pb::Failure::kEof || f == pb::Failure::kProtocol) break;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    for (int c = 0; c < kConnections; ++c) {
      for (const Done& d : warm[c]) {
        // A new daemon's cache is empty, so no warm-up reply is a hit.
        rep.tally.add(d.record.failure == pb::Failure::kNone && d.record.cached
                          ? pb::Failure::kCached
                          : d.record.failure);
      }
    }
    if (s + 1 < kSetups) {
      conns.clear();
      if (!daemon->terminate(&error)) rep.problem(error);
      daemon.reset();
    }
  }

  // --- timed phases ---
  // Untraced: one phase of S seconds. Traced: four phases of S/2,
  // untraced/traced alternating, so host drift hits both sides alike.
  std::vector<bool> phases = opt.trace ? std::vector<bool>{false, true, false,
                                                           true}
                                       : std::vector<bool>{false};
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::map<std::string, double> stats_before = daemon_stats(*conns[0]);
  const auto steal_before = steal_ticks();
  ServeRun run;
  std::atomic<bool> dead{false};
  for (const bool traced : phases) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(phase_s));
    std::vector<std::vector<Done>> got(kConnections);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        if (!pin_thread(serve_cpus)) dead.store(true);
        while (!dead.load() && Clock::now() < deadline) {
          pb::Request request = streams[c].next();
          pb::JobRecord record =
              pb::exchange(*conns[c], request, kReplyTimeoutMs);
          // Every request is new to the daemon; a hit would skip the work.
          if (record.failure == pb::Failure::kNone && record.cached) {
            record.failure = pb::Failure::kCached;
          }
          const bool fatal = record.failure == pb::Failure::kEof ||
                             record.failure == pb::Failure::kProtocol;
          got[c].push_back({std::move(request), std::move(record), c, traced});
          if (fatal) dead.store(true);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = ms_between(start, Clock::now()) / 1000.0;
    (traced ? run.wall_traced_s : run.wall_s) += wall;
    for (int c = 0; c < kConnections; ++c) {
      for (Done& d : got[c]) run.jobs.push_back(std::move(d));
    }
    if (dead.load()) break;
  }
  print_steal(steal_before);
  const std::map<std::string, double> stats_after = daemon_stats(*conns[0]);
  const double rss = pb::peak_rss_mb(daemon->pid());
  conns.clear();
  std::string error;
  if (!daemon->terminate(&error)) rep.problem(error);
  daemon.reset();
  for (const Done& d : run.jobs) rep.tally.add(d.record.failure);
  if (stats_after.empty()) rep.problem("stats request failed");

  // --- output checks (not timed) ---
  // Socket-vs-direct contract: the daemon's payload equals
  // serve::execute_request in this process, byte for byte.
  const std::array<int, pb::kKinds> quota =
      opt.trace ? std::array<int, 4>{24, 6, 2, 2} : std::array<int, 4>{8, 3, 1, 1};
  std::array<int, pb::kKinds> covered{};
  SpanSink inproc_sink(2, 0);
  for (const std::size_t i : seeded_subset(run.jobs, opt.seed, quota)) {
    Done* d = &run.jobs[i];
    std::string why;
    const std::string direct =
        inprocess(*d, &layers, opt.trace ? &inproc_sink : nullptr, &why);
    ++covered[static_cast<int>(d->request.kind)];
    if (direct != d->record.payload) {
      rep.problem(std::string("payload of ") + d->request.tag + " (" +
                  pb::kind_name(d->request.kind) +
                  ") differs from execute_request" +
                  (why.empty() ? "" : ": " + why));
      rep.tally.fail_after(&d->record.failure, pb::Failure::kMismatch);
    }
  }
  for (int k = 0; k < pb::kKinds; ++k) {
    if (covered[k] == 0) {
      rep.problem(std::string("no completed ") +
                  pb::kind_name(static_cast<Kind>(k)) +
                  " job to check against execute_request");
    }
  }
  for (Span& s : inproc_sink.spans) all_spans->push_back(std::move(s));

  // --- metrics ---
  std::vector<double> lat[2];
  std::array<std::vector<double>, pb::kKinds> lat_kind;
  std::vector<double> admit_us;
  std::uint64_t jobs_ok[2] = {0, 0};
  double graded[2] = {0, 0};
  double progress = 0, bytes_in = 0, bytes_out = 0, steps = 0, messages = 0;
  double runs = 0, evolve_novel = 0, evolve_exec = 0;
  std::uint64_t traced_jobs = 0;
  std::uint64_t accepted_late = 0;
  std::vector<SpanSink> client_sinks;
  for (int c = 0; c < kConnections; ++c) client_sinks.emplace_back(1, c);
  for (const Done& d : run.jobs) {
    if (d.record.failure != pb::Failure::kNone) continue;
    const int side = d.traced ? 1 : 0;
    accepted_late += d.record.accepted_late ? 1 : 0;
    const double ms = ms_between(d.record.submit, d.record.result);
    lat[side].push_back(ms);
    ++jobs_ok[side];
    Json payload;
    std::string err;
    const bool parsed = Json::parse(d.record.payload, &payload, &err);
    if (parsed) graded[side] += graded_runs(d.request.kind, payload);
    if (d.traced) {
      // The trace file keeps the spans of the first few thousand jobs; the
      // metrics use every job.
      if (traced_jobs < kTraceJobs) {
        client_spans(client_sinks[d.conn], d);
      }
      ++traced_jobs;
      lat_kind[static_cast<int>(d.request.kind)].push_back(ms);
      admit_us.push_back(ms_between(d.record.submit, d.record.accepted) *
                         1000.0);
      progress += d.record.progress_lines;
      bytes_in += static_cast<double>(d.record.bytes_out);
      bytes_out += static_cast<double>(d.record.bytes_in);
      if (parsed && d.request.kind == Kind::kRun) {
        steps += count_field(payload, "steps");
        messages += count_field(payload, "messages_sent");
        runs += 1;
      }
      if (parsed && d.request.kind == Kind::kEvolve) {
        evolve_novel += count_field(payload, "novel");
        evolve_exec += count_field(payload, "executed");
      }
    }
  }
  for (SpanSink& sink : client_sinks) {
    for (Span& span : sink.spans) all_spans->push_back(std::move(span));
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  rep.e2e.push_back({"setup_s", pb::median(setup_s), "s"});
  rep.e2e.push_back({"latency_p50_ms", pb::median(lat[0]), "ms"});
  rep.e2e.push_back({"jobs_per_s", ratio(jobs_ok[0], run.wall_s), "1/s"});
  rep.e2e.push_back({"peak_rss_mb", rss, "MB"});
  if (const auto p99 = pb::percentile(lat[0], 99)) {
    rep.e2e_extra.push_back({"latency_p99_ms", *p99, "ms"});
  } else {
    std::printf("latency_p99_ms: not reported, fewer than 1000 jobs\n");
  }
  rep.e2e_extra.push_back({"runs_per_s", ratio(graded[0], run.wall_s), "1/s"});
  std::printf("samples: %llu untraced jobs in %.3f s; set-ups (s):",
              static_cast<unsigned long long>(jobs_ok[0]), run.wall_s);
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nordering: %llu results arrived before their accepted line\n",
              static_cast<unsigned long long>(accepted_late));

  if (opt.trace) {
    rep.e2e_traced.push_back({"latency_p50_ms", pb::median(lat[1]), "ms"});
    rep.e2e_traced.push_back({"jobs_per_s", ratio(jobs_ok[1], run.wall_traced_s),
            "1/s"});
    const double hits = counter_delta(stats_before, stats_after,
                                      "serve.cache.hits");
    const double misses = counter_delta(stats_before, stats_after,
                                        "serve.cache.misses");
    const double shrink = counter_delta(stats_before, stats_after,
                                        "fuzz.shrink_runs");
    const double all_runs =
        counter_delta(stats_before, stats_after, "fuzz.runs") +
        counter_delta(stats_before, stats_after, "fuzz.evolve.runs") + shrink;
    const double n = static_cast<double>(traced_jobs);
    auto& L = rep.layers;
    L.push_back({"serve.admit_us", pb::median(admit_us), "us"});
    L.push_back({"serve.bytes_in_per_job", ratio(bytes_in, n), "B"});
    L.push_back({"serve.bytes_out_per_job", ratio(bytes_out, n), "B"});
    L.push_back({"serve.cache_hit_ratio", ratio(hits, hits + misses), "1"});
    L.push_back({"serve.parse_submit_us", pb::median(layers.parse_submit_us),
            "us"});
    L.push_back({"serve.cache_key_us", pb::median(layers.cache_key_us), "us"});
    L.push_back({"serve.exec_gap_ms", pb::median(layers.exec_gap_ms), "ms"});
    L.push_back({"serve.progress_lines_per_job", ratio(progress, n), "count"});
    for (int k = 0; k < pb::kKinds; ++k) {
      L.push_back({std::string("serve.latency_ms.") +
                      pb::kind_name(static_cast<Kind>(k)),
              pb::median(lat_kind[k]), "ms"});
    }
    std::vector<double> all_lat;
    for (const auto& v : lat_kind) all_lat.insert(all_lat.end(), v.begin(), v.end());
    L.push_back({"serve.latency_ms.p99", pb::percentile(all_lat, 99).value_or(0),
            "ms"});
    L.push_back({"util.json_parse_us", pb::median(layers.json_parse_us), "us"});
    L.push_back({"util.json_dump_us", pb::median(layers.json_dump_us), "us"});
    L.push_back({"scenario.parse_us", pb::median(layers.scenario_parse_us),
            "us"});
    L.push_back({"scenario.write_us", pb::median(layers.scenario_write_us),
            "us"});
    L.push_back({"scenario.fuzz_sweep_ms", pb::median(layers.sweep_ms), "ms"});
    L.push_back({"fuzz.config_parse_us", pb::median(layers.config_parse_us),
            "us"});
    L.push_back({"fuzz.config_write_us", pb::median(layers.config_write_us),
            "us"});
    L.push_back({"fuzz.run_ms", pb::median(layers.run_ms), "ms"});
    L.push_back({"fuzz.shrink_share", ratio(shrink, all_runs), "1"});
    L.push_back({"fuzz.evolve_novel_ratio", ratio(evolve_novel, evolve_exec),
            "1"});
    L.push_back({"fuzz.generation_ms", pb::median(layers.generation_ms), "ms"});
    L.push_back({"harness.batch_ms", pb::median(layers.batch_ms), "ms"});
    L.push_back({"sim.steps_per_run", ratio(steps, runs), "count"});
    L.push_back({"sim.messages_per_run", ratio(messages, runs), "count"});
    L.push_back({"sim.steps_per_s", pb::median(layers.steps_per_s), "1/s"});
    L.push_back({"sim.runs_per_s", ratio(graded[1], run.wall_traced_s), "1/s"});
  }
}

// --- mc_check ---------------------------------------------------------------------

struct McPrepared {
  pb::McScenario generated;
  wfd::scenario::Scenario scenario;
  std::uint64_t transitions = 0;  ///< of the first check; later ones agree
};

/// The output check of one regime: the verdict equals expect.mc, and the
/// checker explored exactly the regime's state space, with the same number
/// of transitions every time (a checker that explored less would otherwise
/// pass and read as faster).
pb::Failure judge(McPrepared& p, const wfd::mc::CheckResult& result,
                  Report& rep) {
  const std::string& regime = p.generated.regime;
  if (result.ok() == p.scenario.expect_mc.violation) {
    rep.problem("mc verdict on " + regime + " is " +
                wfd::mc::verdict_name(result.verdict) +
                ", expect.mc differs");
    return pb::Failure::kVerdict;
  }
  if (result.states != p.generated.states) {
    rep.problem("mc on " + regime + " explored " +
                std::to_string(result.states) + " states, not " +
                std::to_string(p.generated.states));
    return pb::Failure::kVerdict;
  }
  if (p.transitions == 0) p.transitions = result.transitions;
  if (result.transitions != p.transitions) {
    rep.problem("mc on " + regime + " explored " +
                std::to_string(result.transitions) + " transitions, earlier " +
                std::to_string(p.transitions));
    return pb::Failure::kVerdict;
  }
  return pb::Failure::kNone;
}

/// scenario::to_mc_instance -> McInstance::run on one thread: the two calls
/// scenario::run_scenario_mc makes, so the result can be checked in full.
wfd::mc::CheckResult check_mc(const wfd::scenario::Scenario& scenario,
                              wfd::obs::SpanLog* spans,
                              wfd::obs::Registry* metrics) {
  wfd::scenario::McInstance instance;
  std::string error;
  if (!wfd::scenario::to_mc_instance(scenario, &instance, &error)) {
    throw std::runtime_error("mc adapter: " + error);
  }
  instance.check.threads = 1;
  instance.check.spans = spans;
  instance.check.metrics = metrics;
  return instance.run();
}

void mc_workload(const Options& opt, Report& rep, Clock::time_point start,
                 std::vector<Span>* all_spans) {
  // --- set-up: parse + adapt all four, check the smallest, several times ---
  std::vector<double> setup_s;
  std::vector<McPrepared> prepared;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = s == 0 ? start : Clock::now();
    prepared.clear();
    for (pb::McScenario& g : pb::mc_scenarios(opt.seed)) {
      McPrepared p{std::move(g), {}};
      std::string error;
      wfd::scenario::McInstance instance;
      if (!wfd::scenario::parse_scenario(p.generated.text, &p.scenario,
                                         &error) ||
          !wfd::scenario::to_mc_instance(p.scenario, &instance, &error)) {
        throw std::runtime_error("mc scenario " + p.generated.regime + ": " +
                                 error);
      }
      prepared.push_back(std::move(p));
    }
    const wfd::mc::CheckResult warm =
        check_mc(prepared[0].scenario, nullptr, nullptr);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    rep.tally.add(judge(prepared[0], warm, rep));
  }

  // --- timed passes ---
  struct Pass {
    bool traced = false;
    double ms = 0;
    std::vector<double> regime_ms;
    std::vector<wfd::mc::CheckResult> results;
    std::vector<double> level_ms;
  };
  std::vector<Pass> passes;
  // Peak RSS through set-up and the first pass: the memory one check of the
  // four regimes needs. Later passes add only the heap fragmentation of a
  // process that checks again and again, which followed the benchmark's own
  // allocations (NOTES.md, "Noise").
  double rss = 0;
  SpanSink sink(2, 0);
  const auto deadline_for = [&](double seconds) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  };
  const auto run_pass = [&](bool traced) {
    Pass pass;
    pass.traced = traced;
    const Clock::time_point p0 = Clock::now();
    for (McPrepared& p : prepared) {
      const std::string& regime = p.generated.regime;
      if (!traced) {
        const Clock::time_point a = Clock::now();
        pass.results.push_back(check_mc(p.scenario, nullptr, nullptr));
        pass.regime_ms.push_back(ms_between(a, Clock::now()));
      } else {
        // parse_scenario -> to_mc_instance -> McInstance::run, with the
        // engine's spans and metrics attached.
        wfd::scenario::Scenario scenario;
        std::string error;
        wfd::obs::SpanLog levels;
        wfd::obs::Registry registry;
        const Clock::time_point t0 = Clock::now();
        if (!wfd::scenario::parse_scenario(p.generated.text, &scenario,
                                           &error)) {
          throw std::runtime_error("mc scenario " + regime + ": " + error);
        }
        const Clock::time_point t1 = Clock::now();
        pass.results.push_back(check_mc(scenario, &levels, &registry));
        const Clock::time_point t2 = Clock::now();
        pass.regime_ms.push_back(ms_between(t1, t2));
        const wfd::obs::Snapshot snap = registry.snapshot();
        const wfd::obs::Snapshot::Counter* states =
            snap.find_counter("mc.states");
        if (states == nullptr || states->value != pass.results.back().states) {
          rep.problem("mc.states counter disagrees with CheckResult on " +
                      regime);
        }
        const std::uint64_t root = sink.add("mc_check.regime", t0, t2, 0, regime);
        sink.add("scenario::parse_scenario", t0, t1, root, regime);
        const std::uint64_t run_span = sink.add(
            "scenario::to_mc_instance + McInstance::run", t1, t2, root, regime);
        for (const wfd::obs::Span& level : levels.spans) {
          const auto at = [&](double ms) {
            return t1 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
          };
          sink.add("mc." + level.name, at(level.start_ms),
                   at(level.start_ms + level.duration_ms), run_span, regime);
          if (level.name != "analyze") pass.level_ms.push_back(level.duration_ms);
        }
      }
    }
    pass.ms = ms_between(p0, Clock::now());
    // Checked after the pass's clock stopped.
    for (std::size_t r = 0; r < prepared.size(); ++r) {
      rep.tally.add(judge(prepared[r], pass.results[r], rep));
    }
    if (passes.empty()) rss = pb::peak_rss_mb(0);
    passes.push_back(std::move(pass));
  };
  // A pass starts only if the median pass so far still fits the window.
  const auto fits = [&](Clock::time_point deadline, bool traced) {
    std::vector<double> ms;
    for (const Pass& p : passes) {
      if (p.traced == traced) ms.push_back(p.ms);
    }
    const auto projected =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               pb::median(ms)));
    return projected <= deadline;
  };
  const auto steal_before = steal_ticks();
  if (!opt.trace) {
    const Clock::time_point deadline = deadline_for(opt.seconds);
    do {
      run_pass(false);
    } while (fits(deadline, false));
  } else {
    // Untraced and traced passes alternate, at least two of each.
    const Clock::time_point deadline = deadline_for(2 * opt.seconds);
    int n = 0;
    do {
      run_pass(n % 2 == 1);
      ++n;
    } while (n < 4 || fits(deadline, n % 2 == 1));
  }
  print_steal(steal_before);

  std::vector<double> pass_ms[2];
  double wall_ms[2] = {0, 0};
  for (const Pass& p : passes) {
    pass_ms[p.traced ? 1 : 0].push_back(p.ms);
    wall_ms[p.traced ? 1 : 0] += p.ms;
  }
  rep.e2e.push_back({"setup_s", pb::median(setup_s), "s"});
  rep.e2e.push_back({"latency_p50_ms", pb::median(pass_ms[0]), "ms"});
  rep.e2e.push_back({"jobs_per_s", pass_ms[0].size() / (wall_ms[0] / 1000.0),
          "1/s"});
  rep.e2e.push_back({"peak_rss_mb", rss, "MB"});
  std::printf("samples: %zu untraced passes; pass ms:", pass_ms[0].size());
  for (const double ms : pass_ms[0]) std::printf(" %.1f", ms);
  std::printf("; set-ups (s):");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  if (opt.trace) {
    rep.e2e_traced.push_back({"latency_p50_ms", pb::median(pass_ms[1]), "ms"});
    rep.e2e_traced.push_back({"jobs_per_s",
            pass_ms[1].size() / (wall_ms[1] / 1000.0), "1/s"});
    std::vector<double> regime[4];
    std::vector<double> levels;
    double states = 0, transitions = 0, seen = 0, frontier = 0, explore_ms = 0;
    int traced_passes = 0;
    for (const Pass& p : passes) {
      if (!p.traced) continue;
      ++traced_passes;
      for (std::size_t r = 0; r < p.results.size(); ++r) {
        regime[r].push_back(p.regime_ms[r]);
        states += static_cast<double>(p.results[r].states);
        transitions += static_cast<double>(p.results[r].transitions);
        seen = std::max(seen, static_cast<double>(p.results[r].seen_bytes));
        frontier = std::max(
            frontier, static_cast<double>(p.results[r].frontier_peak_bytes));
        explore_ms += p.regime_ms[r];
      }
      levels.insert(levels.end(), p.level_ms.begin(), p.level_ms.end());
    }
    auto& L = rep.layers;
    for (std::size_t r = 0; r < prepared.size(); ++r) {
      L.push_back({"mc.regime_ms." + prepared[r].generated.regime,
                   pb::median(regime[r]), "ms"});
    }
    L.push_back({"mc.states_per_s", states / (explore_ms / 1000.0), "1/s"});
    L.push_back({"mc.new_state_ratio", transitions > 0 ? states / transitions : 0,
            "1"});
    L.push_back({"mc.states", states / traced_passes, "count"});
    L.push_back({"mc.transitions", transitions / traced_passes, "count"});
    L.push_back({"mc.seen_bytes", seen, "B"});
    L.push_back({"mc.frontier_peak_bytes", frontier, "B"});
    L.push_back({"mc.level_ms", pb::median(levels), "ms"});
    for (Span& s : sink.spans) all_spans->push_back(std::move(s));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  std::signal(SIGPIPE, SIG_IGN);
  const Options opt = parse_args(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);

  Report rep;
  Layers layers;
  std::vector<Span> spans;
  const bool serve = opt.workload != "mc_check";
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "connections=%d daemon_workers=%d client_threads=%d "
              "mc_threads=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, serve ? kConnections : 0,
              serve ? kWorkers : 0, serve ? kConnections : 0, serve ? 0 : 1);
  std::fflush(stdout);
  try {
    if (opt.workload == "mc_check") {
      mc_workload(opt, rep, start, &spans);
    } else {
      serve_workload(opt, rep, layers, &spans);
    }
  } catch (const std::exception& e) {
    rep.problem(e.what());
  }

  print_metrics("end-to-end (tracing off):", rep.e2e);
  print_metrics("end-to-end, this workload only (tracing off):",
                rep.e2e_extra);
  const double attempted = static_cast<double>(rep.tally.attempted());
  const double failed_share =
      attempted > 0 ? static_cast<double>(rep.tally.failed()) / attempted : 1.0;
  std::printf("  %-28s %16.6f 1 (%llu failed of %llu attempted)\n",
              "failed_share", failed_share,
              static_cast<unsigned long long>(rep.tally.failed()),
              static_cast<unsigned long long>(rep.tally.attempted()));
  for (const auto& [reason, count] : rep.tally.reasons()) {
    std::printf("  failures: %s x%llu\n", reason.c_str(),
                static_cast<unsigned long long>(count));
  }

  std::vector<Metric> final_metrics = rep.e2e;
  if (opt.trace) {
    std::printf("tracing overhead (traced vs untraced, same run):\n");
    for (const Metric& t : rep.e2e_traced) {
      for (const Metric& u : rep.e2e) {
        if (u.name == t.name && u.value > 0) {
          std::printf("  %-28s %12.4f traced vs %12.4f untraced %s (%+.2f%%)\n",
                      t.name.c_str(), t.value, u.value, t.unit.c_str(),
                      100.0 * (t.value / u.value - 1.0));
        }
      }
    }
    final_metrics = rep.layers;
    print_metrics("per-layer (traced run):", final_metrics);
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (write_trace(path, spans, start)) {
      std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
    } else {
      rep.problem("cannot write " + path);
    }
  }

  const bool correct = rep.problems.empty() && rep.tally.failed() == 0 &&
                       rep.tally.attempted() > 0 && !rep.e2e.empty();
  // A run-level failure with no failed job still reads as one failure.
  const std::uint64_t failed =
      correct ? 0 : std::max<std::uint64_t>(1, rep.tally.failed());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  1, rep.tally.attempted())),
              static_cast<unsigned long long>(failed),
              metrics_json(final_metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
