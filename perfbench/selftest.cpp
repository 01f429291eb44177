// Tests of the benchmark's own logic: seeded, framing-safe request
// generation, the percentile helper, response scanning and the failure
// accounting of the client. Built by perfbench/CMakeLists.txt; run with
// `python3 perfbench/run.py --selftest`.
#include <set>
#include <thread>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core.hpp"
#include "scenario/adapters.hpp"
#include "serve/serve.hpp"
#include "util/json.hpp"

namespace pb = perfbench;
using wfd::util::Json;

namespace {

std::vector<wfd::scenario::Scenario> test_vectors() {
  // Two small vectors in the conformance schema, so the generator tests do
  // not depend on the corpus on disk.
  std::vector<wfd::scenario::Scenario> out;
  for (const char* text : {
           R"({"schema_version":1,"name":"a","seed":1,"target":"scripted_extraction",
               "topology":{"graph":"ring","n":2},"steps":60000,
               "scheduler":{"kind":"random"},
               "timing":{"delay":"uniform","min":1,"max":4},
               "expect":{"fuzz":{"verdict":"clean","seeds":[1,2,3]}}})",
           R"({"schema_version":1,"name":"b","seed":5,"target":"dining",
               "topology":{"graph":"ring","n":4},"steps":60000,
               "expect":{"fuzz":{"verdict":"clean"}}})"}) {
    wfd::scenario::Scenario scenario;
    std::string error;
    EXPECT_TRUE(wfd::scenario::parse_scenario(text, &scenario, &error))
        << error;
    out.push_back(scenario);
  }
  return out;
}

std::string fresh_stream(std::uint64_t seed, int blocks) {
  const auto vectors = test_vectors();
  std::string all;
  for (int c = 0; c < 2; ++c) {
    pb::FreshStream stream(seed, c, &vectors);
    for (int i = 0; i < blocks * pb::FreshStream::kBlock; ++i) {
      all += stream.next().line + "\n";
    }
    for (int k = 0; k < pb::kKinds; ++k) {
      all += pb::FreshStream::warmup(c, static_cast<pb::Kind>(k), &vectors)
                 .line +
             "\n";
    }
  }
  return all;
}

std::string mc_stream(std::uint64_t seed) {
  std::string all;
  for (const pb::McScenario& s : pb::mc_scenarios(seed)) all += s.text + "\n";
  return all;
}

/// Parses as one submit line the daemon accepts; returns its cache key.
std::string accepted_key(const pb::Request& request) {
  EXPECT_EQ(request.line.find('\n'), std::string::npos) << request.line;
  Json doc;
  std::string error;
  EXPECT_TRUE(Json::parse(request.line, &doc, &error)) << error;
  wfd::serve::Request parsed;
  EXPECT_TRUE(wfd::serve::parse_submit(doc, &parsed, &error))
      << error << "\n" << request.line;
  EXPECT_EQ(parsed.tag, request.tag);
  EXPECT_EQ(static_cast<int>(parsed.kind), static_cast<int>(request.kind));
  return wfd::serve::cache_key(parsed);
}

}  // namespace

TEST(Generator, SameSeedGivesByteIdenticalStreams) {
  EXPECT_EQ(fresh_stream(7, 2), fresh_stream(7, 2));
  EXPECT_EQ(mc_stream(7), mc_stream(7));
}

TEST(Generator, DifferentSeedGivesDifferentStreams) {
  EXPECT_NE(fresh_stream(7, 1), fresh_stream(8, 1));
  EXPECT_NE(mc_stream(7), mc_stream(8));
}

TEST(Generator, WarmupIsSeedIndependentAndDisjointFromTheStream) {
  const auto vectors = test_vectors();
  std::set<std::string> keys;
  for (int c = 0; c < 2; ++c) {
    pb::FreshStream stream(pb::FreshStream::kWarmupSeed, c, &vectors);
    for (int i = 0; i < pb::FreshStream::kBlock; ++i) {
      const pb::Request r = stream.next();
      if (r.kind != pb::Kind::kEvolve) keys.insert(accepted_key(r));
    }
    for (int k = 0; k < pb::kKinds - 1; ++k) {  // evolve is uncacheable
      const pb::Request r =
          pb::FreshStream::warmup(c, static_cast<pb::Kind>(k), &vectors);
      EXPECT_TRUE(keys.insert(accepted_key(r)).second) << r.line;
    }
  }
}

TEST(Generator, FreshBlocksHaveTheDocumentedMixAndNeverRepeat) {
  const auto vectors = test_vectors();
  std::set<std::string> keys;
  std::set<std::string> tags;
  for (int c = 0; c < 2; ++c) {
    pb::FreshStream stream(3, c, &vectors);
    for (int block = 0; block < 3; ++block) {
      int count[pb::kKinds] = {0, 0, 0, 0};
      for (int i = 0; i < pb::FreshStream::kBlock; ++i) {
        const pb::Request r = stream.next();
        ++count[static_cast<int>(r.kind)];
        const std::string key = accepted_key(r);
        if (r.kind != pb::Kind::kEvolve) {
          EXPECT_TRUE(keys.insert(key).second) << "repeated " << r.line;
        }
        EXPECT_TRUE(tags.insert(r.tag).second);
      }
      EXPECT_EQ(count[0], 24);
      EXPECT_EQ(count[1], 6);
      EXPECT_EQ(count[2], 1);
      EXPECT_EQ(count[3], 1);
    }

  }
}

TEST(Generator, OneLineRejoinsMultiLineWriterOutput) {
  const std::string text = "{\n  \"a\": 1,\n  \"b\": [1, 2]\n}\n";
  EXPECT_EQ(pb::one_line(text), R"({"a":1,"b":[1,2]})");
}

TEST(Generator, McScenariosCoverTheFourTwoPairRegimes) {
  const std::vector<pb::McScenario> scenarios = pb::mc_scenarios(5);
  ASSERT_EQ(scenarios.size(), 4u);
  std::set<std::pair<int, bool>> regimes;
  for (const pb::McScenario& s : scenarios) {
    wfd::scenario::Scenario scenario;
    wfd::scenario::McInstance instance;
    std::string error;
    ASSERT_TRUE(wfd::scenario::parse_scenario(s.text, &scenario, &error))
        << error;
    ASSERT_TRUE(wfd::scenario::to_mc_instance(scenario, &instance, &error))
        << error;
    EXPECT_TRUE(scenario.supports_mc());
    EXPECT_FALSE(scenario.expect_mc.violation);
    EXPECT_EQ(instance.options.pairs, 2);
    regimes.insert({static_cast<int>(instance.options.mode),
                    instance.options.allow_crash});
  }
  EXPECT_EQ(regimes.size(), 4u);
  // The state counts the benchmark checks every pass against; the smallest
  // regime is checked here, the others by every benchmark run.
  EXPECT_EQ(scenarios[0].states, 516961u);
  EXPECT_EQ(scenarios[1].states, 1742400u);
  EXPECT_EQ(scenarios[2].states, 4389025u);
  EXPECT_EQ(scenarios[3].states, 8340544u);
  wfd::scenario::Scenario smallest;
  wfd::scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(wfd::scenario::parse_scenario(scenarios[0].text, &smallest,
                                            &error));
  ASSERT_TRUE(wfd::scenario::to_mc_instance(smallest, &instance, &error));
  instance.check.threads = 1;
  const wfd::mc::CheckResult result = instance.run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.states, scenarios[0].states);
}

TEST(Percentile, NearestRankWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted input
  ASSERT_TRUE(pb::percentile(v, 99).has_value());
  EXPECT_EQ(*pb::percentile(v, 99), 990.0);  // rank ceil(0.99 * 1000)
  EXPECT_EQ(*pb::percentile(v, 50), 500.0);
  v.pop_back();  // 999 samples: only 9 beyond rank 990
  EXPECT_FALSE(pb::percentile(v, 99).has_value());

  std::vector<double> small = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10,
                               11, 12, 13, 14, 15, 16, 17, 18, 19};
  EXPECT_FALSE(pb::percentile(small, 50).has_value());  // 19: 9 beyond
  small.push_back(20);
  EXPECT_EQ(*pb::percentile(small, 50), 10.0);
  EXPECT_FALSE(pb::percentile({}, 50).has_value());
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(pb::median({3, 1, 2}), 2.0);
  EXPECT_EQ(pb::median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(pb::median({}), 0.0);
}

TEST(Response, ScansMembersInAnyOrder) {
  pb::Response r;
  ASSERT_TRUE(pb::scan_response(
      R"({"payload":{"kind":"run","detail":"a \"}\" b","x":[1,{"y":2}]},)"
      R"("cached":true,"tag":"c0.1","job":42,"type":"result"})",
      &r));
  EXPECT_EQ(r.type, "result");
  EXPECT_EQ(r.tag, "c0.1");
  EXPECT_EQ(r.job, 42u);
  EXPECT_TRUE(r.has_cached);
  EXPECT_TRUE(r.cached);
  EXPECT_EQ(r.payload, R"({"kind":"run","detail":"a \"}\" b","x":[1,{"y":2}]})");
  EXPECT_FALSE(pb::scan_response(R"({"type":"result")", &r));
  EXPECT_FALSE(pb::scan_response(R"({"type":"result"} trailing)", &r));
}

namespace {

/// Run one exchange against a fake daemon that answers with `lines` (and
/// then closes the connection when `close_after`).
pb::JobRecord against(const std::vector<std::string>& lines,
                      bool close_after) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread daemon([&] {
    pb::LineConn server(fds[1]);
    std::string request;
    EXPECT_EQ(server.next(&request, 5000), pb::LineConn::Status::kLine);
    for (const std::string& line : lines) server.send_line(line);
    if (!close_after) {
      // Hold the connection open until the client is done.
      std::string ignored;
      server.next(&ignored, 5000);
    }
  });
  pb::JobRecord record;
  {
    pb::LineConn client(fds[0]);
    pb::Request request;
    request.tag = "t";
    request.line = R"({"type":"submit","kind":"run","tag":"t","config":{}})";
    record = pb::exchange(client, request, 5000);
  }
  daemon.join();
  return record;
}

}  // namespace

TEST(Failures, EachInjectedFaultCountsExactlyOnce) {
  const std::string accepted = R"({"type":"accepted","job":7,"tag":"t","queue_depth":0})";
  const std::string result =
      R"({"type":"result","job":7,"tag":"t","cached":false,"payload":{"kind":"run"}})";
  struct Case {
    std::vector<std::string> lines;
    bool close_after;
    pb::Failure expected;
  };
  const std::vector<Case> cases = {
      {{accepted, R"({"type":"progress","job":7,"completed":1,"total":2})",
        result},
       false, pb::Failure::kNone},
      {{R"({"type":"error","error":"bad JSON"})"}, false, pb::Failure::kError},
      {{R"({"type":"rejected","reason":"backpressure","tag":"t"})"}, false,
       pb::Failure::kRejected},
      {{accepted}, true, pb::Failure::kEof},
      {{accepted, R"({"type":"result","job":8,"tag":"t","cached":false,"payload":{}})"},
       false, pb::Failure::kProtocol},
  };
  for (const Case& c : cases) {
    pb::JobRecord record = against(c.lines, c.close_after);
    EXPECT_EQ(record.failure, c.expected) << pb::failure_name(record.failure);
    pb::Tally tally;
    tally.add(record.failure);
    EXPECT_EQ(tally.attempted(), 1u);
    EXPECT_EQ(tally.failed(), c.expected == pb::Failure::kNone ? 0u : 1u);
    // A payload mismatch found after the timed phase adds one failure to a
    // success and none to a job that already failed, however often found.
    tally.fail_after(&record.failure, pb::Failure::kMismatch);
    tally.fail_after(&record.failure, pb::Failure::kMismatch);
    EXPECT_EQ(tally.attempted(), 1u);
    EXPECT_EQ(tally.failed(), 1u);
  }
}

TEST(Failures, ResultMayOvertakeAcceptedAndProgress) {
  // The daemon enqueues before it writes accepted, so a fast worker's lines
  // can come first; the job still succeeds and nothing is left unread.
  const pb::JobRecord record = against(
      {R"({"type":"progress","job":9,"completed":1,"total":2})",
       R"({"type":"result","job":9,"tag":"t","cached":false,"payload":{"b":2}})",
       R"({"type":"accepted","job":9,"tag":"t"})"},
      false);
  ASSERT_EQ(record.failure, pb::Failure::kNone);
  EXPECT_TRUE(record.accepted_late);
  EXPECT_EQ(record.progress_lines, 1u);
  EXPECT_EQ(record.payload, R"({"b":2})");
  const pb::JobRecord wrong = against(
      {R"({"type":"result","job":9,"tag":"t","cached":false,"payload":{}})",
       R"({"type":"accepted","job":10,"tag":"t"})"},
      false);
  EXPECT_EQ(wrong.failure, pb::Failure::kProtocol);
}

TEST(Failures, SuccessfulExchangeKeepsTimesAndPayload) {
  const pb::JobRecord record = against(
      {R"({"type":"accepted","job":3,"tag":"t"})",
       R"({"type":"result","job":3,"tag":"t","cached":true,"payload":{"a":1}})"},
      false);
  ASSERT_EQ(record.failure, pb::Failure::kNone);
  EXPECT_TRUE(record.cached);
  EXPECT_EQ(record.payload, R"({"a":1})");
  EXPECT_LE(record.submit, record.accepted);
  EXPECT_LE(record.accepted, record.result);
}
