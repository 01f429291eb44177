#include "fuzz/config.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace wfd::fuzz {

using util::Json;

namespace {

struct NameEntry {
  const char* name;
  std::uint8_t value;
};

constexpr NameEntry kTargets[] = {
    {"dining", 0},  {"scripted_dining", 1},        {"extraction", 2},
    {"scripted_extraction", 3}, {"broken_single_instance", 4},
    {"broken_fork_based", 5},
};
constexpr const char* kSchedulers[] = {"round_robin", "random", "weighted",
                                       "pausing"};
constexpr const char* kDelays[] = {"fixed", "uniform", "geometric",
                                   "partial_synchrony"};
constexpr const char* kGraphs[] = {"pair", "ring", "clique", "star", "path"};

template <class E, std::size_t N>
const char* enum_name(const char* const (&names)[N], E value) {
  const auto index = static_cast<std::size_t>(value);
  return index < N ? names[index] : "?";
}

template <std::size_t N>
bool enum_from_name(const char* const (&names)[N], const std::string& name,
                    std::uint8_t* out) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == names[i]) {
      *out = static_cast<std::uint8_t>(i);
      return true;
    }
  }
  return false;
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

const char* to_string(TargetKind target) {
  const auto index = static_cast<std::size_t>(target);
  return index < std::size(kTargets) ? kTargets[index].name : "?";
}

bool target_from_string(const std::string& name, TargetKind* out) {
  for (const NameEntry& entry : kTargets) {
    if (name == entry.name) {
      *out = static_cast<TargetKind>(entry.value);
      return true;
    }
  }
  return false;
}

bool is_extraction_target(TargetKind target) {
  return target == TargetKind::kExtraction ||
         target == TargetKind::kScriptedExtraction ||
         target == TargetKind::kBrokenSingleInstance;
}

bool is_broken_target(TargetKind target) {
  return target == TargetKind::kBrokenSingleInstance ||
         target == TargetKind::kBrokenForkBased;
}

bool has_network_adversary(const FuzzConfig& config) {
  return config.loss_rate > 0.0 || config.dup_rate > 0.0 ||
         !config.partitions.empty();
}

const char* to_string(SchedulerKind kind) { return enum_name(kSchedulers, kind); }
const char* to_string(DelayKind kind) { return enum_name(kDelays, kind); }
const char* to_string(GraphKind kind) { return enum_name(kGraphs, kind); }

bool scheduler_from_string(const std::string& name, SchedulerKind* out) {
  std::uint8_t raw = 0;
  if (!enum_from_name(kSchedulers, name, &raw)) return false;
  *out = static_cast<SchedulerKind>(raw);
  return true;
}

bool delay_from_string(const std::string& name, DelayKind* out) {
  std::uint8_t raw = 0;
  if (!enum_from_name(kDelays, name, &raw)) return false;
  *out = static_cast<DelayKind>(raw);
  return true;
}

bool graph_from_string(const std::string& name, GraphKind* out) {
  std::uint8_t raw = 0;
  if (!enum_from_name(kGraphs, name, &raw)) return false;
  *out = static_cast<GraphKind>(raw);
  return true;
}

sim::Time effective_delay_max(const FuzzConfig& config) {
  switch (config.delay) {
    case DelayKind::kFixed:
      return std::max<sim::Time>(1, config.delay_max);
    case DelayKind::kUniform:
      return std::max(config.delay_min, config.delay_max);
    case DelayKind::kGeometric:
      return std::max<sim::Time>(1, config.delay_max);
    case DelayKind::kPartialSynchrony:
      // Pre-GST messages are capped at gst + delta after the send; post-GST
      // at delta. The worst draw is the pre-GST cap.
      return std::max(config.delay_min, config.delay_max);
  }
  return 1;
}

sim::Time convergence_deadline(const FuzzConfig& config) {
  sim::Time base = config.exclusive_from;
  for (const auto& window : config.mistakes) base = std::max(base, window.until);
  for (const auto& crash : config.crashes) {
    base = std::max(base, crash.at + config.detector_lag);
  }
  for (const auto& pause : config.pauses) base = std::max(base, pause.until);
  if (config.delay == DelayKind::kPartialSynchrony) {
    base = std::max(base, config.gst);
  }
  // A healing partition is a disturbance that ends at `until`; a permanent
  // one (kNever) has no convergence point, so it does not stretch the
  // deadline — runs with one are expected to fail their eventual oracles,
  // which is the point of shipping it.
  for (const auto& window : config.partitions) {
    if (window.until != sim::kNever) base = std::max(base, window.until);
  }
  // Margin: in-flight effects of pre-deadline disturbances (a prefix grant
  // issued one tick before exclusive_from still travels, is eaten, and is
  // released up to ~delay_max + eat-time later), plus the arbitration knobs
  // that stretch the box's reaction time. Extraction targets additionally
  // need a few witness meal cycles — each one a full hungry->eating->exit
  // round trip through the box plus a ping/ack exchange — to withdraw a
  // prefix suspicion, so their margin is doubled.
  sim::Time margin = 3000 + 200 * effective_delay_max(config) +
                     64 * config.grant_holdoff +
                     1500 * static_cast<sim::Time>(config.member0_burst);
  if (is_extraction_target(config.target) ||
      config.target == TargetKind::kBrokenForkBased) {
    margin *= 2;
  }
  return base + margin;
}

sim::Time wait_free_bound(const FuzzConfig& config) {
  // A hungry spell may legitimately span a whole pause window, a crash
  // detection lag, or a burst of competitor meals; the bound stays far above
  // all of those yet far below the post-deadline runway, so a starved diner
  // is always flagged while legal waits never are.
  const sim::Time floor = 8000 + 400 * effective_delay_max(config) +
                          64 * config.grant_holdoff +
                          1500 * static_cast<sim::Time>(config.member0_burst) +
                          2 * config.detector_lag;
  return std::max(floor, config.steps / 4);
}

std::string config_to_json(const FuzzConfig& config, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream out;
  out << "{\n";
  const auto field = [&](const char* key, const std::string& rendered,
                         bool last = false) {
    out << pad << quote(key) << ": " << rendered << (last ? "\n" : ",\n");
  };
  const auto num = [](auto value) {
    std::ostringstream text;
    text << value;
    return text.str();
  };
  // Doubles take the JSON writer's rule (the shortest text that parses back
  // to the same double), so a config crosses a shard pipe, a .repro file or
  // a cache key bit-exactly; `<<` would keep only 6 significant digits.
  const auto real = [](double value) { return Json::of_double(value).number; };
  field("seed", num(config.seed));
  field("target", quote(to_string(config.target)));
  field("n", num(config.n));
  field("steps", num(config.steps));
  field("graph", quote(to_string(config.graph)));
  field("scheduler", quote(to_string(config.scheduler)));
  {
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.weights.size(); ++i) {
      list << (i > 0 ? ", " : "") << config.weights[i];
    }
    list << "]";
    field("weights", list.str());
  }
  {
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.pauses.size(); ++i) {
      const PausePlan& pause = config.pauses[i];
      list << (i > 0 ? ", " : "") << "{\"pid\": " << pause.pid
           << ", \"from\": " << pause.from << ", \"until\": " << pause.until
           << "}";
    }
    list << "]";
    field("pauses", list.str());
  }
  field("delay", quote(to_string(config.delay)));
  field("delay_min", num(config.delay_min));
  field("delay_max", num(config.delay_max));
  field("geo_p", real(config.geo_p));
  field("gst", num(config.gst));
  {
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.crashes.size(); ++i) {
      list << (i > 0 ? ", " : "") << "{\"pid\": " << config.crashes[i].pid
           << ", \"at\": " << config.crashes[i].at << "}";
    }
    list << "]";
    field("crashes", list.str());
  }
  {
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.mistakes.size(); ++i) {
      const detect::MistakeWindow& window = config.mistakes[i];
      list << (i > 0 ? ", " : "") << "{\"watcher\": " << window.watcher
           << ", \"subject\": " << window.subject << ", \"from\": " << window.from
           << ", \"until\": " << window.until << "}";
    }
    list << "]";
    field("mistakes", list.str());
  }
  field("detector_lag", num(config.detector_lag));
  field("exclusive_from", num(config.exclusive_from));
  field("semantics", quote(config.semantics == dining::BoxSemantics::kLockout
                               ? "lockout"
                               : "fork_based"));
  field("member0_burst", num(config.member0_burst));
  field("grant_holdoff", num(config.grant_holdoff));
  field("never_exit_member", num(config.never_exit_member));
  field("loss_rate", real(config.loss_rate));
  field("dup_rate", real(config.dup_rate));
  field("dup_spread", num(config.dup_spread));
  field("retransmit_every", num(config.retransmit_every));
  field("retransmit_max", num(config.retransmit_max));
  {
    // A permanent partition (until == kNever) serializes as "until": 0 —
    // "never heals" — keeping the JSON free of 2^64-1 magic numbers.
    std::ostringstream list;
    list << "[";
    for (std::size_t i = 0; i < config.partitions.size(); ++i) {
      const sim::PartitionWindow& window = config.partitions[i];
      list << (i > 0 ? ", " : "") << "{\"from\": " << window.from
           << ", \"until\": "
           << (window.until == sim::kNever ? 0 : window.until)
           << ", \"side\": [";
      for (std::size_t j = 0; j < window.side.size(); ++j) {
        list << (j > 0 ? ", " : "") << window.side[j];
      }
      list << "]}";
    }
    list << "]";
    field("partitions", list.str(), /*last=*/true);
  }
  out << "}";
  return out.str();
}

namespace {

bool apply_config_json(const Json& root, FuzzConfig* out, std::string* error,
                       bool strict = false) {
  if (root.kind != Json::Kind::kObject) {
    if (error != nullptr) *error = "config is not a JSON object";
    return false;
  }
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  for (const auto& [key, value] : root.members) {
    if (key == "seed") {
      out->seed = value.as_u64(out->seed);
    } else if (key == "target") {
      if (!target_from_string(value.as_string(""), &out->target)) {
        return fail("unknown target: " + value.as_string(""));
      }
    } else if (key == "n") {
      out->n = static_cast<std::uint32_t>(value.as_u64(out->n));
    } else if (key == "steps") {
      out->steps = value.as_u64(out->steps);
    } else if (key == "graph") {
      std::uint8_t raw = 0;
      if (!enum_from_name(kGraphs, value.as_string(""), &raw)) {
        return fail("unknown graph: " + value.as_string(""));
      }
      out->graph = static_cast<GraphKind>(raw);
    } else if (key == "scheduler") {
      std::uint8_t raw = 0;
      if (!enum_from_name(kSchedulers, value.as_string(""), &raw)) {
        return fail("unknown scheduler: " + value.as_string(""));
      }
      out->scheduler = static_cast<SchedulerKind>(raw);
    } else if (key == "weights") {
      out->weights.clear();
      for (const Json& item : value.items) out->weights.push_back(item.as_u64(1));
    } else if (key == "pauses") {
      out->pauses.clear();
      for (const Json& item : value.items) {
        PausePlan pause;
        if (const Json* f = item.find("pid")) pause.pid = static_cast<sim::ProcessId>(f->as_u64());
        if (const Json* f = item.find("from")) pause.from = f->as_u64();
        if (const Json* f = item.find("until")) pause.until = f->as_u64();
        out->pauses.push_back(pause);
      }
    } else if (key == "delay") {
      std::uint8_t raw = 0;
      if (!enum_from_name(kDelays, value.as_string(""), &raw)) {
        return fail("unknown delay: " + value.as_string(""));
      }
      out->delay = static_cast<DelayKind>(raw);
    } else if (key == "delay_min") {
      out->delay_min = value.as_u64(out->delay_min);
    } else if (key == "delay_max") {
      out->delay_max = value.as_u64(out->delay_max);
    } else if (key == "geo_p") {
      out->geo_p = value.as_double(out->geo_p);
    } else if (key == "gst") {
      out->gst = value.as_u64(out->gst);
    } else if (key == "crashes") {
      out->crashes.clear();
      for (const Json& item : value.items) {
        CrashPlan crash;
        if (const Json* f = item.find("pid")) crash.pid = static_cast<sim::ProcessId>(f->as_u64());
        if (const Json* f = item.find("at")) crash.at = f->as_u64();
        out->crashes.push_back(crash);
      }
    } else if (key == "mistakes") {
      out->mistakes.clear();
      for (const Json& item : value.items) {
        detect::MistakeWindow window;
        if (const Json* f = item.find("watcher")) window.watcher = static_cast<sim::ProcessId>(f->as_u64());
        if (const Json* f = item.find("subject")) window.subject = static_cast<sim::ProcessId>(f->as_u64());
        if (const Json* f = item.find("from")) window.from = f->as_u64();
        if (const Json* f = item.find("until")) window.until = f->as_u64();
        out->mistakes.push_back(window);
      }
    } else if (key == "detector_lag") {
      out->detector_lag = value.as_u64(out->detector_lag);
    } else if (key == "exclusive_from") {
      out->exclusive_from = value.as_u64(out->exclusive_from);
    } else if (key == "semantics") {
      const std::string name = value.as_string("lockout");
      if (name == "lockout") {
        out->semantics = dining::BoxSemantics::kLockout;
      } else if (name == "fork_based") {
        out->semantics = dining::BoxSemantics::kForkBased;
      } else {
        return fail("unknown semantics: " + name);
      }
    } else if (key == "member0_burst") {
      out->member0_burst = static_cast<std::uint32_t>(value.as_u64(out->member0_burst));
    } else if (key == "grant_holdoff") {
      out->grant_holdoff = value.as_u64(out->grant_holdoff);
    } else if (key == "never_exit_member") {
      out->never_exit_member = static_cast<std::int32_t>(value.as_double(-1));
    } else if (key == "loss_rate") {
      out->loss_rate = value.as_double(out->loss_rate);
    } else if (key == "dup_rate") {
      out->dup_rate = value.as_double(out->dup_rate);
    } else if (key == "dup_spread") {
      out->dup_spread = value.as_u64(out->dup_spread);
    } else if (key == "retransmit_every") {
      out->retransmit_every = value.as_u64(out->retransmit_every);
    } else if (key == "retransmit_max") {
      out->retransmit_max =
          static_cast<std::uint32_t>(value.as_u64(out->retransmit_max));
    } else if (key == "partitions") {
      out->partitions.clear();
      for (const Json& item : value.items) {
        sim::PartitionWindow window;
        if (const Json* f = item.find("from")) window.from = f->as_u64();
        if (const Json* f = item.find("until")) {
          const sim::Time until = f->as_u64();
          window.until = until == 0 ? sim::kNever : until;  // 0 = never heals
        }
        if (const Json* f = item.find("side")) {
          for (const Json& pid : f->items) {
            window.side.push_back(static_cast<sim::ProcessId>(pid.as_u64()));
          }
        }
        out->partitions.push_back(window);
      }
    } else if (strict) {
      // Strict mode (.repro / scenario surfaces): an unrecognized key is a
      // hand-edit mistake or a file from a newer schema — fail loudly
      // instead of silently dropping behavior.
      return fail("unknown config key \"" + key + "\"");
    }
    // Lenient mode ignores unknown keys: forward compat for hand edits.
  }
  return true;
}

}  // namespace

bool config_from_json(const std::string& text, FuzzConfig* out,
                      std::string* error) {
  Json root;
  if (!Json::parse(text, &root, error)) return false;
  *out = FuzzConfig{};
  return apply_config_json(root, out, error);
}

std::string repro_to_json(const ReproCase& repro) {
  std::ostringstream out;
  out << "{\n  \"schema_version\": 1,\n  \"expect\": {\"oracle\": "
      << quote(repro.oracle) << ", \"at\": " << repro.at
      << ", \"detail\": " << quote(repro.detail) << "},\n  \"config\": ";
  // Re-indent the config object under the top-level object.
  const std::string config = config_to_json(repro.config, 4);
  for (const char c : config) {
    out << c;
    if (c == '\n') out << "  ";
  }
  out << "\n}\n";
  return out.str();
}

bool repro_from_json(const std::string& text, ReproCase* out,
                     std::string* error) {
  Json root;
  if (!Json::parse(text, &root, error)) return false;
  if (root.kind != Json::Kind::kObject) {
    if (error != nullptr) *error = "repro is not a JSON object";
    return false;
  }
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  // Versioned schema, strict keys: a .repro pins an outcome bit-exactly, so
  // silently ignoring a key (typo'd hand edit, future-schema field) would
  // replay a DIFFERENT case and still claim success. Unknown keys and
  // missing/foreign versions are hard errors; missing known fields still
  // default (strict means no surprises, not no defaults).
  const Json* version = root.find("schema_version");
  if (version == nullptr) {
    return fail("missing \"schema_version\" (expected 1; pre-versioning "
                "files must be migrated)");
  }
  if (version->as_u64() != 1) {
    return fail("unsupported schema_version " +
                std::to_string(version->as_u64()) +
                " (this build supports 1)");
  }
  *out = ReproCase{};
  for (const auto& [key, value] : root.members) {
    if (key == "schema_version" || key == "expect" || key == "config") continue;
    return fail("unknown repro key \"" + key + "\"");
  }
  if (const Json* expect = root.find("expect")) {
    for (const auto& [key, value] : expect->members) {
      if (key == "oracle") {
        out->oracle = value.as_string("none");
      } else if (key == "at") {
        out->at = value.as_u64();
      } else if (key == "detail") {
        out->detail = value.as_string("");
      } else {
        return fail("unknown expect key \"" + key + "\"");
      }
    }
  }
  const Json* config = root.find("config");
  if (config == nullptr) {
    return fail("repro has no \"config\" member");
  }
  return apply_config_json(*config, &out->config, error, /*strict=*/true);
}

bool load_repro_file(const std::string& path, ReproCase* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return repro_from_json(buffer.str(), out, error);
}

bool save_repro_file(const std::string& path, const ReproCase& repro) {
  std::ofstream out(path);
  if (!out) return false;
  out << repro_to_json(repro);
  return static_cast<bool>(out);
}

}  // namespace wfd::fuzz
