// Perfetto / Chrome trace_event JSON export for sim::Trace event streams
// and mc engine phase spans, loadable in ui.perfetto.dev (or
// chrome://tracing). One sim tick maps to one microsecond of trace time.
//
// Mapping:
//   * every retained sim::Event except diner transitions becomes one "i"
//     (instant) event on track (pid=1 "sim", tid=<acting process>), with
//     the kind name as "name", the kind as "cat", and a/b/c as args;
//   * a kDinerTransition becomes one "X" (complete) span for the phase that
//     just ended, on a dedicated track per (process, instance tag) so span
//     start times stay monotone per track even when instances interleave;
//   * mc spans (per-BFS-level phases recorded in a SpanLog) become "X"
//     events on pid=2 "mc".
// Exactly one JSON event is emitted per input event passing the filter —
// the invariant that lets per-kind output counts be checked against the
// metrics registry's sim.events.* counters from the same run.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"  // dependency-free JSON reader, reused to validate

namespace wfd::obs {

/// Event selection for export: empty vectors mean "everything".
struct TraceEventFilter {
  std::vector<std::uint8_t> kinds;       ///< raw kind values to keep
  std::vector<sim::ProcessId> pids;      ///< acting processes to keep
  sim::Time from = 0;                    ///< inclusive
  sim::Time until = ~std::uint64_t{0};   ///< inclusive

  bool pass(const sim::Event& event) const {
    if (event.time < from || event.time > until) return false;
    if (!kinds.empty()) {
      const auto raw = static_cast<std::uint8_t>(event.kind);
      bool hit = false;
      for (const std::uint8_t k : kinds) hit = hit || k == raw;
      if (!hit) return false;
    }
    if (!pids.empty()) {
      bool hit = false;
      for (const sim::ProcessId p : pids) hit = hit || p == event.pid;
      if (!hit) return false;
    }
    return true;
  }
  bool pass_all() const {
    return kinds.empty() && pids.empty() && from == 0 &&
           until == ~std::uint64_t{0};
  }
};

struct ExportStats {
  std::uint64_t emitted = 0;   ///< JSON events written (excluding metadata)
  std::uint64_t filtered = 0;  ///< input events dropped by the filter
  std::map<std::string, std::uint64_t> by_kind;  ///< kind name -> emitted
};

namespace perfetto_detail {

inline const char* diner_phase_name(std::uint64_t state) {
  switch (state) {
    case 0: return "thinking";
    case 1: return "hungry";
    case 2: return "eating";
    case 3: return "exiting";
  }
  return "phase?";
}

inline void write_event_args(std::ostream& out, const sim::Event& event) {
  out << "\"args\":{\"a\":" << event.a << ",\"b\":" << event.b
      << ",\"c\":" << event.c << '}';
}

}  // namespace perfetto_detail

/// Write `events` as a Chrome trace_event JSON document. Returns per-kind
/// emission counts for validation against registry counters.
inline ExportStats write_perfetto(const std::vector<sim::Event>& events,
                                  std::ostream& out,
                                  const TraceEventFilter& filter = {}) {
  ExportStats stats;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ',';
    first = false;
  };

  // Diner phase tracks: one per (pid, instance tag), allocated in discovery
  // order; last_transition remembers where the open phase began.
  struct DinerTrack {
    std::uint32_t tid;
    sim::Time since;
    std::uint64_t state;
  };
  std::map<std::pair<sim::ProcessId, std::uint64_t>, DinerTrack> diner_tracks;
  std::uint32_t next_diner_tid = 1000;
  std::map<std::uint32_t, std::string> thread_names;

  for (const sim::Event& event : events) {
    if (!filter.pass(event)) {
      ++stats.filtered;
      continue;
    }
    const char* kind_name = sim::to_string(event.kind);
    if (event.kind == sim::EventKind::kDinerTransition) {
      // a = instance tag, b = from-state, c = to-state: close the phase
      // that just ended as a complete span on the instance's own track.
      const std::pair<sim::ProcessId, std::uint64_t> key{event.pid, event.a};
      auto it = diner_tracks.find(key);
      if (it == diner_tracks.end()) {
        DinerTrack track{next_diner_tid++, 0, event.b};
        it = diner_tracks.emplace(key, track).first;
        std::ostringstream label;
        label << "diner p" << event.pid << " tag=0x" << std::hex << event.a;
        thread_names.emplace(it->second.tid, label.str());
      }
      sep();
      out << "{\"name\":\"" << perfetto_detail::diner_phase_name(event.b)
          << "\",\"cat\":\"" << kind_name << "\",\"ph\":\"X\",\"ts\":"
          << it->second.since << ",\"dur\":" << (event.time - it->second.since)
          << ",\"pid\":1,\"tid\":" << it->second.tid << ',';
      perfetto_detail::write_event_args(out, event);
      out << '}';
      it->second.since = event.time;
      it->second.state = event.c;
    } else {
      const std::uint32_t tid = event.pid;
      if (thread_names.find(tid) == thread_names.end()) {
        thread_names.emplace(tid, "p" + std::to_string(event.pid));
      }
      sep();
      out << "{\"name\":\"" << kind_name << "\",\"cat\":\"" << kind_name
          << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << event.time
          << ",\"pid\":1,\"tid\":" << tid << ',';
      perfetto_detail::write_event_args(out, event);
      out << '}';
    }
    ++stats.emitted;
    ++stats.by_kind[kind_name];
  }

  sep();
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"sim\"}}";
  for (const auto& [tid, label] : thread_names) {
    out << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << label << "\"}}";
  }
  out << "]}";
  return stats;
}

/// Write an mc SpanLog as complete spans on pid=2 ("mc"). Span times are
/// already milliseconds; trace_event wants microseconds.
inline ExportStats write_perfetto_spans(const SpanLog& log,
                                        std::ostream& out) {
  ExportStats stats;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
         "\"args\":{\"name\":\"mc\"}}";
  for (const Span& span : log.spans) {
    out << ",{\"name\":\"" << span.name << "\",\"cat\":\"mc\",\"ph\":\"X\""
        << ",\"ts\":" << static_cast<std::uint64_t>(span.start_ms * 1000.0)
        << ",\"dur\":"
        << static_cast<std::uint64_t>(span.duration_ms * 1000.0)
        << ",\"pid\":2,\"tid\":" << span.track
        << ",\"args\":{\"states\":" << span.arg << "}}";
    ++stats.emitted;
    ++stats.by_kind[span.name];
  }
  out << "]}";
  return stats;
}

/// Pull the sim.events.* counters out of a registry snapshot, keyed by the
/// bare kind name — the shape validate_trace_json compares against.
inline std::map<std::string, std::uint64_t> expected_counts_from(
    const Snapshot& snapshot) {
  std::map<std::string, std::uint64_t> counts;
  constexpr std::string_view kPrefix = "sim.events.";
  for (const Snapshot::Counter& c : snapshot.counters) {
    if (c.name.size() > kPrefix.size() &&
        c.name.compare(0, kPrefix.size(), kPrefix) == 0) {
      counts[c.name.substr(kPrefix.size())] = c.value;
    }
  }
  return counts;
}

/// Validate an exported document: well-formed JSON, a traceEvents array
/// whose "i"/"X" entries carry name/ph/ts/pid/tid, per-(pid,tid) timestamps
/// nondecreasing in array order, and — when `expected` is non-null — the
/// per-kind ("cat") event counts exactly equal to the expected map (only
/// kinds present in `expected` are compared; a kind the registry counted
/// that never shows up in the document is a failure too).
inline bool validate_trace_json(
    const std::string& text,
    const std::map<std::string, std::uint64_t>* expected, std::string* why) {
  const auto fail = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  util::Json doc;
  std::string error;
  if (!util::Json::parse(text, &doc, &error)) {
    return fail("not well-formed JSON: " + error);
  }
  const util::Json* events = doc.find("traceEvents");
  if (events == nullptr || events->kind != util::Json::Kind::kArray) {
    return fail("missing traceEvents array");
  }
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> last_ts;
  std::map<std::string, std::uint64_t> by_cat;
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const util::Json& entry = events->items[i];
    if (entry.kind != util::Json::Kind::kObject) {
      return fail("traceEvents[" + std::to_string(i) + "] is not an object");
    }
    const util::Json* ph = entry.find("ph");
    if (ph == nullptr || ph->kind != util::Json::Kind::kString) {
      return fail("traceEvents[" + std::to_string(i) + "] has no ph");
    }
    if (ph->str == "M") continue;  // metadata: no timestamp
    if (ph->str != "i" && ph->str != "X") {
      return fail("unexpected ph \"" + ph->str + "\"");
    }
    const util::Json* name = entry.find("name");
    const util::Json* ts = entry.find("ts");
    const util::Json* pid = entry.find("pid");
    const util::Json* tid = entry.find("tid");
    if (name == nullptr || name->kind != util::Json::Kind::kString ||
        ts == nullptr || ts->kind != util::Json::Kind::kNumber ||
        pid == nullptr || tid == nullptr) {
      return fail("traceEvents[" + std::to_string(i) +
                  "] lacks name/ts/pid/tid");
    }
    const std::pair<std::uint64_t, std::uint64_t> track{pid->as_u64(),
                                                        tid->as_u64()};
    const std::uint64_t t = ts->as_u64();
    const auto it = last_ts.find(track);
    if (it != last_ts.end() && t < it->second) {
      return fail("timestamps regress on track pid=" +
                  std::to_string(track.first) + " tid=" +
                  std::to_string(track.second) + " at traceEvents[" +
                  std::to_string(i) + "]");
    }
    last_ts[track] = t;
    if (const util::Json* cat = entry.find("cat")) {
      if (cat->kind == util::Json::Kind::kString) ++by_cat[cat->str];
    }
  }
  if (expected != nullptr) {
    for (const auto& [kind, count] : *expected) {
      const auto it = by_cat.find(kind);
      const std::uint64_t got = it == by_cat.end() ? 0 : it->second;
      if (got != count) {
        return fail("event count mismatch for kind \"" + kind +
                    "\": document has " + std::to_string(got) +
                    ", registry counted " + std::to_string(count));
      }
    }
  }
  return true;
}

}  // namespace wfd::obs
