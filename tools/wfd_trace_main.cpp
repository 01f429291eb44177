// wfd_trace — run a fuzz configuration with trace capture and export the
// event stream as Perfetto / Chrome trace_event JSON (ui.perfetto.dev):
//
//   wfd_trace export --target dining --n 5 --seed 42 --out run.json
//   wfd_trace export --repro case.repro --kinds diner,crash --out run.json
//   wfd_trace export --target dining --n 5 --seed 42 --validate
//   wfd_trace summarize --repro tests/corpus/clean-dining-ring.repro
//   wfd_trace check-progress progress.ndjson
//
// `export --validate` re-checks the emitted document: well-formed JSON,
// monotone per-track timestamps, and (when no filter is active) per-kind
// event counts exactly equal to the metrics-registry counters from the same
// run — the end-to-end consistency check between the trace path and the
// metrics path.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/config.hpp"
#include "fuzz/oracles.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/progress.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace wfd;

struct Cli {
  std::string command;
  std::string repro_path;
  std::string target = "dining";
  std::uint32_t n = 5;
  std::uint64_t seed = 42;
  std::uint64_t steps = 60000;
  std::string out_path;
  std::size_t capacity = 1 << 20;
  std::string kinds_spec;
  std::string pids_spec;
  std::uint64_t from = 0;
  std::uint64_t until = ~std::uint64_t{0};
  bool validate = false;
  std::string progress_path;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: wfd_trace <command> [options]\n"
      "commands:\n"
      "  export          run a config, write Perfetto trace_event JSON\n"
      "  summarize       run a config, print per-kind event counts\n"
      "  check-progress  validate an NDJSON progress stream (from\n"
      "                  wfd_fuzz --progress-json)\n"
      "options (export / summarize):\n"
      "  --repro FILE    take the config from a .repro file\n"
      "  --target NAME   target system (default dining)\n"
      "  --n N           population size (default 5)\n"
      "  --seed S        engine seed (default 42)\n"
      "  --steps N       steps to run (default 60000; normalize may raise)\n"
      "  --out FILE      output path (default stdout)\n"
      "  --capacity N    retained-event bound (default 1048576)\n"
      "  --kinds LIST    comma-separated kind names to export\n"
      "                  (step,send,deliver,drop,crash,diner,detector,custom)\n"
      "  --pids LIST     comma-separated acting pids to export\n"
      "  --from T        earliest event time to export (inclusive)\n"
      "  --until T       latest event time to export (inclusive)\n"
      "  --validate      re-parse the document and check per-track\n"
      "                  monotonicity plus (unfiltered) per-kind counts\n"
      "                  against the metrics registry\n";
  std::exit(code);
}

Cli parse(int argc, char** argv) {
  Cli cli;
  if (argc < 2) usage(2);
  cli.command = argv[1];
  if (cli.command == "--help" || cli.command == "-h") usage(0);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cout << "wfd_trace: missing value for " << arg << "\n";
        usage(2);
      }
      return argv[++i];
    };
    if (arg == "--repro") {
      cli.repro_path = value();
    } else if (arg == "--target") {
      cli.target = value();
    } else if (arg == "--n") {
      cli.n = static_cast<std::uint32_t>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (arg == "--seed") {
      cli.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--steps") {
      cli.steps = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--out") {
      cli.out_path = value();
    } else if (arg == "--capacity") {
      cli.capacity = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--kinds") {
      cli.kinds_spec = value();
    } else if (arg == "--pids") {
      cli.pids_spec = value();
    } else if (arg == "--from") {
      cli.from = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--until") {
      cli.until = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--validate") {
      cli.validate = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (cli.command == "check-progress" && arg[0] != '-') {
      cli.progress_path = arg;
    } else {
      std::cout << "wfd_trace: unknown argument " << arg << "\n";
      usage(2);
    }
  }
  return cli;
}

std::vector<std::string> split_commas(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = spec.find(',', begin);
    const std::string item = spec.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

bool kind_from_name(const std::string& name, std::uint8_t* out) {
  for (std::uint8_t k = 0; k < 8; ++k) {
    if (name == sim::to_string(static_cast<sim::EventKind>(k))) {
      *out = k;
      return true;
    }
  }
  return false;
}

/// Resolve the run configuration: a .repro file wins, else the synthetic
/// --target/--n/--seed/--steps dining-style config.
bool resolve_config(const Cli& cli, fuzz::FuzzConfig* config,
                    std::string* error) {
  if (!cli.repro_path.empty()) {
    fuzz::ReproCase repro;
    if (!fuzz::load_repro_file(cli.repro_path, &repro, error)) return false;
    *config = repro.config;
    return true;
  }
  fuzz::TargetKind target;
  if (!fuzz::target_from_string(cli.target, &target)) {
    *error = "unknown target " + cli.target;
    return false;
  }
  config->target = target;
  config->n = cli.n;
  config->seed = cli.seed;
  config->steps = cli.steps;
  return true;
}

bool build_filter(const Cli& cli, obs::TraceEventFilter* filter,
                  std::string* error) {
  for (const std::string& name : split_commas(cli.kinds_spec)) {
    std::uint8_t kind = 0;
    if (!kind_from_name(name, &kind)) {
      *error = "unknown event kind " + name;
      return false;
    }
    filter->kinds.push_back(kind);
  }
  for (const std::string& pid : split_commas(cli.pids_spec)) {
    filter->pids.push_back(
        static_cast<sim::ProcessId>(std::strtoul(pid.c_str(), nullptr, 10)));
  }
  filter->from = cli.from;
  filter->until = cli.until;
  return true;
}

int export_main(const Cli& cli) {
  fuzz::FuzzConfig config;
  std::string error;
  if (!resolve_config(cli, &config, &error)) {
    std::cout << "wfd_trace: " << error << "\n";
    return 2;
  }
  obs::TraceEventFilter filter;
  if (!build_filter(cli, &filter, &error)) {
    std::cout << "wfd_trace: " << error << "\n";
    return 2;
  }

  obs::Registry registry;
  fuzz::RunCapture capture;
  capture.trace_capacity = cli.capacity;
  capture.metrics = &registry;
  fuzz::run_config(config, capture);

  std::ostringstream doc;
  const obs::ExportStats stats =
      obs::write_perfetto(capture.events, doc, filter);
  const std::string text = doc.str();

  if (cli.out_path.empty()) {
    std::cout << text << "\n";
  } else {
    std::ofstream out(cli.out_path);
    if (!out) {
      std::cout << "wfd_trace: cannot write " << cli.out_path << "\n";
      return 2;
    }
    out << text << "\n";
  }
  std::cerr << "exported " << stats.emitted << " event(s) ("
            << stats.filtered << " filtered, " << capture.truncated
            << " truncated) from " << capture.events.size()
            << " retained\n";

  if (cli.validate) {
    // Count matching is only meaningful for a full, untruncated export:
    // the registry counted every emitted event, the document must hold
    // exactly as many.
    const bool full = filter.pass_all() && capture.truncated == 0;
    if (!full && filter.pass_all()) {
      std::cout << "wfd_trace: validation needs an untruncated capture "
                   "(raise --capacity)\n";
      return 1;
    }
    std::map<std::string, std::uint64_t> expected =
        obs::expected_counts_from(registry.snapshot());
    std::string why;
    if (!obs::validate_trace_json(text, full ? &expected : nullptr, &why)) {
      std::cout << "wfd_trace: VALIDATION FAILED: " << why << "\n";
      return 1;
    }
    std::cout << "validated: well-formed, monotone per track"
              << (full ? ", per-kind counts match the metrics registry" : "")
              << "\n";
  }
  return 0;
}

int summarize_main(const Cli& cli) {
  fuzz::FuzzConfig config;
  std::string error;
  if (!resolve_config(cli, &config, &error)) {
    std::cout << "wfd_trace: " << error << "\n";
    return 2;
  }
  obs::Registry registry;
  fuzz::RunCapture capture;
  capture.trace_capacity = cli.capacity;
  capture.metrics = &registry;
  const fuzz::RunResult result = fuzz::run_config(config, capture);

  std::map<std::string, std::uint64_t> by_kind;
  sim::Time first = 0, last = 0;
  for (const sim::Event& event : capture.events) {
    ++by_kind[sim::to_string(event.kind)];
    if (first == 0) first = event.time;
    last = event.time;
  }
  std::cout << capture.events.size() << " event(s) retained ("
            << capture.truncated << " truncated), t=[" << first << ", "
            << last << "], end_time=" << capture.end_time << "\n";
  for (const auto& [kind, count] : by_kind) {
    std::cout << "  " << kind << ": " << count << "\n";
  }
  std::cout << "run verdict: "
            << (result.ok() ? "clean" : result.primary()->oracle) << "\n"
            << "metrics: " << registry.snapshot().to_json() << "\n";
  return 0;
}

/// Shape-check an NDJSON progress stream: every line one JSON object with a
/// string "type"; at least one record; the final record type "campaign".
int check_progress_main(const Cli& cli) {
  if (cli.progress_path.empty()) {
    std::cout << "wfd_trace: check-progress needs a file argument\n";
    return 2;
  }
  std::ifstream in(cli.progress_path);
  if (!in) {
    std::cout << "wfd_trace: cannot read " << cli.progress_path << "\n";
    return 2;
  }
  std::string line;
  std::size_t records = 0;
  std::string last_type;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++records;
    util::Json doc;
    std::string error;
    if (!util::Json::parse(line, &doc, &error)) {
      std::cout << "wfd_trace: line " << records << " is not valid JSON: "
                << error << "\n";
      return 1;
    }
    const util::Json* type = doc.find("type");
    if (doc.kind != util::Json::Kind::kObject || type == nullptr ||
        type->kind != util::Json::Kind::kString) {
      std::cout << "wfd_trace: line " << records << " lacks a type field\n";
      return 1;
    }
    last_type = type->str;
    if (type->str == "progress" || type->str == "campaign") {
      for (const char* field : {"seed", "elapsed_ms"}) {
        const util::Json* v = doc.find(field);
        if (v == nullptr || v->kind != util::Json::Kind::kNumber) {
          std::cout << "wfd_trace: line " << records << " lacks numeric "
                    << field << "\n";
          return 1;
        }
      }
    }
  }
  if (records == 0) {
    std::cout << "wfd_trace: empty progress stream\n";
    return 1;
  }
  if (last_type != "campaign") {
    std::cout << "wfd_trace: final record has type \"" << last_type
              << "\", expected \"campaign\"\n";
    return 1;
  }
  std::cout << records << " progress record(s), stream well-formed\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  if (cli.command == "export") return export_main(cli);
  if (cli.command == "summarize") return summarize_main(cli);
  if (cli.command == "check-progress") return check_progress_main(cli);
  std::cout << "wfd_trace: unknown command " << cli.command << "\n";
  usage(2);
}
