// serve-smoke: the campaign daemon (src/serve) exercised in-process over
// real unix sockets — NDJSON framing, request validation, the bounded
// admission queue's deterministic backpressure edge, cache-hit byte
// identity, disconnect cancellation, drain semantics, and the headline
// determinism pin: a request submitted through the socket yields a result
// payload bit-identical to execute_request() called directly, across three
// conformance vectors plus raw-config, campaign and evolve submissions. The
// end-to-end suite against the real wfd_serve binary (SIGTERM, process
// lifecycle) lives in tools/wfd_client.py --e2e.
#include <gtest/gtest.h>

#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "fuzz/oracles.hpp"
#include "serve/framing.hpp"
#include "serve/serve.hpp"
#include "util/json.hpp"

namespace wfd::serve {
namespace {

namespace fs = std::filesystem;
using util::Json;

// write_line must surface a dead peer as `false`, never as SIGPIPE death —
// the same process-wide stance the daemon mains take.
struct SigpipeIgnore {
  SigpipeIgnore() { std::signal(SIGPIPE, SIG_IGN); }
} g_sigpipe_ignore;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- framing ---------------------------------------------------------------

TEST(Framing, ReassemblesLinesAcrossArbitraryChunks) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char* chunks[] = {"hel", "lo\nwor", "ld\n\ntail"};
  for (const char* chunk : chunks) {
    ASSERT_GT(::write(fds[1], chunk, std::strlen(chunk)), 0);
  }
  ::close(fds[1]);
  LineReader reader(fds[0]);
  std::string line;
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "hello");
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "world");
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "");  // the blank line between \n\n
  // The unterminated tail before EOF still comes out as a line.
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "tail");
  EXPECT_EQ(reader.next(&line), LineReader::Status::kEof);
  ::close(fds[0]);
}

TEST(Framing, StripsCarriageReturnAndCapsLineLength) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string crlf = "ping\r\n";
  ASSERT_GT(::write(fds[1], crlf.data(), crlf.size()), 0);
  const std::string runaway(64, 'x');  // no newline, over the 16-byte cap
  ASSERT_GT(::write(fds[1], runaway.data(), runaway.size()), 0);
  ::close(fds[1]);
  LineReader reader(fds[0], 16);
  std::string line;
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "ping");
  EXPECT_EQ(reader.next(&line), LineReader::Status::kTooLong);
  // Poisoned: the reader never yields data from an over-limit stream.
  EXPECT_EQ(reader.next(&line), LineReader::Status::kTooLong);
  ::close(fds[0]);
}

TEST(Framing, CapsLinesWhoseNewlineArrivesInTheSameRead) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // One write below PIPE_BUF, so the reader gets it in one read: the
  // 20-byte line's '\n' is already buffered when its length is judged.
  const std::string input =
      std::string(16, 'a') + "\n" + std::string(20, 'x') + "\nping\n";
  ASSERT_EQ(::write(fds[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(fds[1]);
  LineReader reader(fds[0], 16);
  std::string line;
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, std::string(16, 'a'));  // exactly at the cap
  EXPECT_EQ(reader.next(&line), LineReader::Status::kTooLong);
  EXPECT_EQ(reader.next(&line), LineReader::Status::kTooLong);
  ::close(fds[0]);
}

TEST(Framing, WriteLineToDeadPeerReturnsFalse) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);  // peer gone
  EXPECT_FALSE(write_line(fds[1], "{\"type\":\"ping\"}"));  // EPIPE, no kill
  ::close(fds[1]);

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EXPECT_TRUE(write_line(pair[0], "hello"));
  LineReader reader(pair[1]);
  std::string line;
  EXPECT_EQ(reader.next(&line), LineReader::Status::kLine);
  EXPECT_EQ(line, "hello");
  ::close(pair[1]);
  // First send after close may succeed (buffered); the connection reset
  // must surface as false within a bounded number of writes, not a signal.
  bool ok = true;
  for (int i = 0; i < 4 && ok; ++i) ok = write_line(pair[0], "after close");
  EXPECT_FALSE(ok);
  ::close(pair[0]);
}

// --- request validation ----------------------------------------------------

Json parse_doc(const std::string& text) {
  Json doc;
  std::string error;
  EXPECT_TRUE(Json::parse(text, &doc, &error)) << error;
  return doc;
}

TEST(ParseSubmit, RejectsMalformedRequests) {
  Request request;
  std::string error;
  EXPECT_FALSE(parse_submit(parse_doc("{\"type\":\"submit\"}"), &request,
                            &error));
  EXPECT_NE(error.find("kind"), std::string::npos) << error;

  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"campaign\"}"), &request,
      &error));
  EXPECT_NE(error.find("runs"), std::string::npos) << error;

  EXPECT_FALSE(parse_submit(
      parse_doc(
          "{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":5000000}"),
      &request, &error));

  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":4,"
                "\"targets\":\"no_such_target\"}"),
      &request, &error));
  EXPECT_NE(error.find("no_such_target"), std::string::npos) << error;

  // Corpus names are names, not paths.
  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"evolve\","
                "\"corpus\":\"../evil\"}"),
      &request, &error));
  EXPECT_NE(error.find("corpus"), std::string::npos) << error;

  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"run\"}"), &request, &error));
  EXPECT_FALSE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"warp\"}"), &request,
      &error));
}

TEST(ParseSubmit, CacheKeyIsCanonical) {
  // Two textually different descriptions of the same run (field order,
  // defaulted members, out-of-domain values the normalizer clamps) share
  // one cache key.
  Request a;
  Request b;
  std::string error;
  ASSERT_TRUE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"run\",\"config\":"
                "{\"seed\":9,\"target\":\"dining\",\"n\":3}}"),
      &a, &error))
      << error;
  ASSERT_TRUE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"run\",\"config\":"
                "{\"n\":3,\"seed\":9,\"target\":\"dining\","
                "\"detector_lag\":20}}"),
      &b, &error))
      << error;
  EXPECT_EQ(cache_key(a), cache_key(b));
  EXPECT_NE(cache_key(a).find("run|"), std::string::npos);

  // Runs whose geo_p differ only in the 7th significant digit are
  // different experiments, so they must not share a cached payload.
  Request c;
  Request d;
  ASSERT_TRUE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"run\",\"config\":"
                "{\"seed\":9,\"delay\":\"geometric\",\"geo_p\":0.4618741}}"),
      &c, &error))
      << error;
  ASSERT_TRUE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"run\",\"config\":"
                "{\"seed\":9,\"delay\":\"geometric\",\"geo_p\":0.4618742}}"),
      &d, &error))
      << error;
  EXPECT_NE(cache_key(c), cache_key(d));

  // Evolve is stateful (its on-disk corpus advances): never cached.
  Request evolve;
  ASSERT_TRUE(parse_submit(
      parse_doc("{\"type\":\"submit\",\"kind\":\"evolve\"}"), &evolve,
      &error))
      << error;
  EXPECT_TRUE(cache_key(evolve).empty());
}

// --- in-process daemon over a real unix socket -----------------------------

class TestClient {
 public:
  bool connect_unix(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      return false;
    }
    reader_ = std::make_unique<LineReader>(fd_);
    return true;
  }
  bool send(const std::string& line) { return write_line(fd_, line); }
  bool next(std::string* line) {
    return reader_->next(line) == LineReader::Status::kLine;
  }
  /// Read lines until one of the given type arrives (progress heartbeats
  /// and accepted acks in between are skipped).
  bool next_of_type(const char* type, std::string* line) {
    const std::string needle = std::string("\"type\":\"") + type + "\"";
    while (next(line)) {
      if (line->find(needle) != std::string::npos) return true;
    }
    return false;
  }
  void close_fd() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() { close_fd(); }

 private:
  int fd_ = -1;
  std::unique_ptr<LineReader> reader_;
};

/// The raw payload bytes of a {"type":"result",...,"payload":{...}} line
/// (payload is the last member, so this is a pure suffix slice).
std::string payload_of(const std::string& result_line) {
  const std::string marker = "\"payload\":";
  const std::size_t pos = result_line.find(marker);
  if (pos == std::string::npos || result_line.empty() ||
      result_line.back() != '}') {
    return std::string();
  }
  return result_line.substr(pos + marker.size(),
                            result_line.size() - pos - marker.size() - 1);
}

class ServeTest : public ::testing::Test {
 protected:
  ServerOptions options_;  ///< adjust before boot()
  std::unique_ptr<Server> server_;
  std::thread runner_;
  std::string sock_path_;

  void boot() {
    static std::atomic<int> counter{0};
    sock_path_ =
        (fs::temp_directory_path() /
         ("wfd_serve_t" + std::to_string(::getpid()) + "_" +
          std::to_string(counter.fetch_add(1) + 1) + ".sock"))
            .string();
    options_.unix_path = sock_path_;
    server_ = std::make_unique<Server>(options_);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    runner_ = std::thread([this] { server_->run(); });
  }

  void drain_and_join() {
    if (server_ != nullptr) server_->request_drain();
    if (runner_.joinable()) runner_.join();
  }

  void TearDown() override {
    drain_and_join();
    server_.reset();
  }

  std::uint64_t counter_value(const char* name) {
    return server_->metrics().snapshot().counter_value(name);
  }
};

TEST_F(ServeTest, PingStatsAndUnknownTypeNeverWedge) {
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  ASSERT_TRUE(client.send("{\"type\":\"ping\"}"));
  std::string line;
  ASSERT_TRUE(client.next(&line));
  EXPECT_EQ(line, "{\"type\":\"pong\"}");

  ASSERT_TRUE(client.send("{\"type\":\"warp\"}"));
  ASSERT_TRUE(client.next(&line));
  EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos) << line;

  ASSERT_TRUE(client.send("this is not json"));
  ASSERT_TRUE(client.next(&line));
  EXPECT_NE(line.find("bad JSON"), std::string::npos) << line;

  ASSERT_TRUE(client.send("{\"type\":\"stats\"}"));
  ASSERT_TRUE(client.next(&line));
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::parse(line, &doc, &error)) << error;
  const Json* registry = doc.find("registry");
  ASSERT_NE(registry, nullptr);
  ASSERT_NE(registry->find("serve.rejected.invalid"), nullptr);
  EXPECT_EQ(registry->find("serve.rejected.invalid")->as_u64(), 2u);
}

// The headline pin: a request submitted through the socket produces a
// result payload bit-identical to executing the same parsed request
// directly — across three conformance vectors, a raw config, and a swarm
// campaign.
TEST_F(ServeTest, SocketResultsAreBitIdenticalToDirectExecution) {
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));

  const auto pin = [&](const Json& submit_doc) {
    Request request;
    std::string error;
    ASSERT_TRUE(parse_submit(submit_doc, &request, &error)) << error;
    const std::string direct = execute_request(request, ExecuteHooks{});

    ASSERT_TRUE(client.send(submit_doc.dump(0)));
    std::string line;
    ASSERT_TRUE(client.next_of_type("result", &line));
    EXPECT_EQ(payload_of(line), direct) << line;
  };

  // Three conformance vectors through the scenario-DSL path.
  for (const char* vector :
       {"v01_exclusive_clean.scenario.json",
        "v04_broken_single_instance.scenario.json",
        "v07_dining_ring.scenario.json"}) {
    SCOPED_TRACE(vector);
    const std::string text =
        read_file(std::string(WFD_VECTOR_DIR) + "/" + vector);
    ASSERT_FALSE(text.empty());
    Json submit = Json::object();
    submit.set("type", Json::of_string("submit"));
    submit.set("kind", Json::of_string("scenario"));
    submit.set("scenario", parse_doc(text));
    pin(submit);
  }

  // A raw fuzz config (the wfd_fuzz --replay shape).
  {
    const fuzz::FuzzConfig config = fuzz::normalize(
        fuzz::sample_config(11, 0, fuzz::legal_targets()));
    Json submit = Json::object();
    submit.set("type", Json::of_string("submit"));
    submit.set("kind", Json::of_string("run"));
    submit.set("config", parse_doc(fuzz::config_to_json(config, 0)));
    pin(submit);
  }

  // A swarm campaign (the wfd_fuzz --runs shape, via harness batches).
  {
    Json submit = parse_doc(
        "{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":4,"
        "\"master_seed\":9,\"targets\":\"legal\"}");
    pin(submit);
  }
}

// An evolve job grades its runway families from one engine on the worker
// thread, exactly as wfd_fuzz does, and its payload through the socket
// equals direct execution. Seed 5's 3 x 8 legal campaign draws runway
// families (EvolveCampaign.JobCountDoesNotChangeTheOutcome pins that).
TEST_F(ServeTest, EvolveMilestonesThroughTheSocketEqualDirectExecution) {
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  const Json submit = parse_doc(
      "{\"type\":\"submit\",\"kind\":\"evolve\",\"generations\":3,"
      "\"gen_size\":8,\"max_family\":4,\"master_seed\":5,"
      "\"targets\":\"legal\",\"shrink\":false}");
  Request request;
  std::string error;
  ASSERT_TRUE(parse_submit(submit, &request, &error)) << error;
  const std::string direct = execute_request(request, ExecuteHooks{});

  ASSERT_TRUE(client.send(submit.dump(0)));
  std::string line;
  ASSERT_TRUE(client.next_of_type("result", &line));
  EXPECT_EQ(payload_of(line), direct) << line;
  EXPECT_GT(counter_value("fuzz.evolve.resumed_runs"), 0u);
}

TEST_F(ServeTest, CacheHitReturnsIdenticalBytesInstantly) {
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  const std::string submit =
      "{\"type\":\"submit\",\"kind\":\"run\",\"config\":"
      "{\"seed\":5,\"target\":\"dining\",\"n\":3,\"steps\":5000}}";
  ASSERT_TRUE(client.send(submit));
  std::string first;
  ASSERT_TRUE(client.next_of_type("result", &first));
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;

  ASSERT_TRUE(client.send(submit));
  std::string second;
  ASSERT_TRUE(client.next_of_type("result", &second));
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos) << second;
  EXPECT_EQ(payload_of(first), payload_of(second));

  EXPECT_EQ(counter_value("serve.cache.hits"), 1u);
  EXPECT_EQ(counter_value("serve.cache.misses"), 1u);
}

/// Pins the calling thread, and every thread it starts, to one CPU for the
/// guard's lifetime.
class OneCpu {
 public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~OneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// A fast job's progress and result lines never overtake its `accepted`
// ack: admission holds the session's write lock from the enqueue until the
// ack is written. Cheap jobs go in one at a time, so each submit wakes an
// idle worker; with the whole daemon on one CPU, that worker can preempt
// the session thread between enqueue and ack. Without the lock about one
// job in 1,500 answered before it was accepted (one run in five failed).
TEST_F(ServeTest, AcceptedPrecedesEveryLineOfItsJob) {
  const OneCpu pin;
  ASSERT_TRUE(pin.pinned());
  options_.workers = 2;
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  constexpr std::size_t kJobs = 400;
  std::set<std::uint64_t> accepted;
  std::string line;
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(client.send(
        "{\"type\":\"submit\",\"kind\":\"run\",\"config\":{\"seed\":" +
        std::to_string(1000 + i) +
        ",\"target\":\"dining\",\"n\":2,\"steps\":50}}"));
    std::string type;
    do {
      ASSERT_TRUE(client.next(&line));
      Json doc;
      std::string error;
      ASSERT_TRUE(Json::parse(line, &doc, &error)) << error << ": " << line;
      const Json* type_field = doc.find("type");
      const Json* job = doc.find("job");
      ASSERT_TRUE(type_field != nullptr && job != nullptr) << line;
      type = type_field->as_string(std::string());
      if (type == "accepted") {
        EXPECT_TRUE(accepted.insert(job->as_u64()).second) << line;
      } else {
        EXPECT_EQ(accepted.count(job->as_u64()), 1u)
            << "line before its job's accepted: " << line;
      }
    } while (type != "result");
  }
  EXPECT_EQ(accepted.size(), kJobs);
  drain_and_join();  // the daemon's threads exit while still pinned
}

TEST_F(ServeTest, BackpressureRejectsExactlyAtCapacity) {
  options_.workers = 0;  // admission-only: nothing dequeues
  options_.queue_capacity = 2;
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  std::string line;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.send(
        "{\"type\":\"submit\",\"kind\":\"run\",\"config\":{\"seed\":" +
        std::to_string(100 + i) + ",\"target\":\"dining\"}}"));
    ASSERT_TRUE(client.next(&line));
    EXPECT_NE(line.find("\"type\":\"accepted\""), std::string::npos) << line;
  }
  ASSERT_TRUE(client.send(
      "{\"type\":\"submit\",\"kind\":\"run\",\"config\":{\"seed\":102,"
      "\"target\":\"dining\"}}"));
  ASSERT_TRUE(client.next(&line));
  EXPECT_NE(line.find("\"type\":\"rejected\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"reason\":\"backpressure\""), std::string::npos)
      << line;
  EXPECT_EQ(counter_value("serve.rejected.backpressure"), 1u);

  // A full queue never wedges the session: the daemon keeps answering.
  ASSERT_TRUE(client.send("{\"type\":\"ping\"}"));
  ASSERT_TRUE(client.next(&line));
  EXPECT_EQ(line, "{\"type\":\"pong\"}");
}

TEST_F(ServeTest, DisconnectCancelsItsJobsAndLeavesOthersServed) {
  options_.workers = 1;
  boot();
  TestClient doomed;
  ASSERT_TRUE(doomed.connect_unix(sock_path_));
  std::string line;
  // Two campaign jobs keep the single worker busy past the disconnect.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(doomed.send(
        "{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":6,"
        "\"master_seed\":" +
        std::to_string(40 + i) + "}"));
    ASSERT_TRUE(doomed.next(&line));
    EXPECT_NE(line.find("\"type\":\"accepted\""), std::string::npos) << line;
  }
  doomed.close_fd();  // vanish mid-stream

  TestClient survivor;
  ASSERT_TRUE(survivor.connect_unix(sock_path_));
  ASSERT_TRUE(survivor.send(
      "{\"type\":\"submit\",\"kind\":\"run\",\"config\":{\"seed\":3,"
      "\"target\":\"dining\",\"steps\":5000}}"));
  ASSERT_TRUE(survivor.next_of_type("result", &line));
  EXPECT_NE(line.find("\"verdict\":"), std::string::npos) << line;

  drain_and_join();
  // At least the queued second job was cancelled instead of computed into
  // the void; nothing crashed or wedged along the way.
  EXPECT_GE(counter_value("serve.jobs.cancelled"), 1u);
  EXPECT_EQ(counter_value("serve.clients.disconnected"), 2u);
}

TEST_F(ServeTest, DrainFinishesQueuedJobsThenHangsUp) {
  options_.workers = 1;
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  ASSERT_TRUE(client.send(
      "{\"type\":\"submit\",\"kind\":\"campaign\",\"runs\":4,"
      "\"master_seed\":9}"));
  std::string line;
  ASSERT_TRUE(client.next(&line));
  EXPECT_NE(line.find("\"type\":\"accepted\""), std::string::npos) << line;

  server_->request_drain();  // drain with the job still in flight
  ASSERT_TRUE(client.next_of_type("result", &line));  // result still flushed
  EXPECT_NE(line.find("\"kind\":\"campaign\""), std::string::npos) << line;
  // After the flush the daemon hangs up and the socket path is gone.
  while (client.next(&line)) {
  }
  drain_and_join();
  EXPECT_FALSE(fs::exists(sock_path_));
  EXPECT_EQ(counter_value("serve.jobs.completed"), 1u);
}

TEST_F(ServeTest, EvolveJobCheckpointsItsNamedCorpus) {
  const fs::path root =
      fs::temp_directory_path() / "wfd_serve_test_corpora";
  fs::remove_all(root);
  fs::create_directories(root);
  options_.workers = 1;
  options_.corpus_root = root.string();
  boot();
  TestClient client;
  ASSERT_TRUE(client.connect_unix(sock_path_));
  ASSERT_TRUE(client.send(
      "{\"type\":\"submit\",\"kind\":\"evolve\",\"generations\":2,"
      "\"gen_size\":4,\"master_seed\":7,\"corpus\":\"c1\","
      "\"checkpoint_every\":1,\"shrink\":false}"));
  std::string line;
  bool saw_progress = false;
  for (;;) {
    ASSERT_TRUE(client.next(&line));
    if (line.find("\"type\":\"progress\"") != std::string::npos) {
      EXPECT_NE(line.find("\"phase\":\"evolve\""), std::string::npos) << line;
      saw_progress = true;
    }
    if (line.find("\"type\":\"result\"") != std::string::npos) break;
  }
  EXPECT_TRUE(saw_progress);
  EXPECT_NE(line.find("\"kind\":\"evolve\""), std::string::npos) << line;

  // The per-generation checkpoints materialized the named corpus on disk.
  std::size_t entries = 0;
  for (const auto& file : fs::directory_iterator(root / "c1")) {
    if (file.path().extension() == ".json") ++entries;
  }
  EXPECT_GT(entries, 0u);
  drain_and_join();
  fs::remove_all(root);
}

}  // namespace
}  // namespace wfd::serve
