// wfd_fuzz — adversarial schedule fuzzer for the wait-free dining reduction.
//
// Run mode: sample randomized campaigns over the FuzzConfig space, grade
// every run against the property oracles, shrink failures to minimal
// replayable .repro files:
//   wfd_fuzz --target legal --runs 40 --threads 2 --json out.json
//   wfd_fuzz --target broken --runs 8 --repro-dir repros --expect-failure
//   wfd_fuzz --budget-ms 30000 --seeds 1:4
//
// Replay mode: re-execute stored cases deterministically and verify the
// recorded outcome bit-identically:
//   wfd_fuzz --replay repros/            (every *.repro in the directory)
//   wfd_fuzz --replay case.repro
//
// Scenario mode: load a declarative *.scenario.json vector, run every
// engine it pins (sim / mc / fuzz) through the adapter layer and compare
// against the expected verdicts:
//   wfd_fuzz --scenario tests/vectors/v01_exclusive_clean.scenario.json
//
// Exit codes: plain run — 0 iff zero oracle failures; --expect-failure —
// 0 iff a failure was found, shrunk and its replay reproduced the recorded
// outcome; replay — 0 iff every case reproduced; scenario — 0 iff every
// pinned engine agreed with its expected verdict.
#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fuzz/evolve.hpp"
#include "fuzz/fuzzer.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "scenario/adapters.hpp"
#include "scenario/scenario.hpp"
#include "util/parse.hpp"

namespace {

using namespace wfd;

struct Cli {
  std::vector<std::string> target_specs;
  std::uint64_t runs = 0;
  std::uint64_t budget_ms = 0;
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 1;
  int threads = 1;
  std::string json_path;
  std::string repro_dir;
  std::vector<std::string> replay_paths;
  std::vector<std::string> scenario_paths;
  bool shrink = true;
  bool expect_failure = false;
  std::uint32_t max_shrink = 160;
  bool quiet = false;
  std::string progress_json;
  std::uint64_t heartbeat_ms = 0;
  // Evolve mode (coverage-guided campaign).
  bool evolve = false;
  std::uint64_t generations = 8;
  std::uint32_t gen_size = 16;
  std::uint32_t max_family = 6;
  int jobs = 1;
  std::string corpus_dir;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "usage: wfd_fuzz [options]\n"
      "  --target SPEC     legal | broken | all | comma-separated target names\n"
      "                    (dining, scripted_dining, extraction,\n"
      "                     scripted_extraction, broken_single_instance,\n"
      "                     broken_fork_based); default legal\n"
      "  --runs N          exact number of runs per campaign (deterministic)\n"
      "  --budget-ms MS    wall-clock budget per campaign (with --runs 0)\n"
      "  --seeds A[:B]     master seed or inclusive range (one campaign each)\n"
      "  --threads N       worker threads for the run fan-out\n"
      "  --json FILE       write campaign stats as a JSON array\n"
      "  --repro-dir DIR   write shrunk .repro files here\n"
      "  --no-shrink       keep failing configs unshrunk\n"
      "  --max-shrink N    shrink attempt budget per failure (default 160)\n"
      "  --expect-failure  exit 0 iff a failure was found and reproduced\n"
      "  --replay PATH     replay a .repro file or every *.repro in a dir\n"
      "  --scenario PATH   run a *.scenario.json vector (or every one in a\n"
      "                    dir) through each engine it pins and compare the\n"
      "                    verdicts against its expect section\n"
      "  --evolve          coverage-guided evolutionary campaign instead of\n"
      "                    swarm sampling (uses --seeds, --target, shrink\n"
      "                    flags; run count is --generations x --gen-size\n"
      "                    slots, each possibly a multi-variant family)\n"
      "  --generations N   evolve: generations per campaign (default 8)\n"
      "  --gen-size N      evolve: mutation slots per generation (default 16)\n"
      "  --max-family N    evolve: max variants per mutation family (default 6)\n"
      "  --jobs N          evolve: forked worker processes (default 1);\n"
      "                    results are bit-identical at any width\n"
      "  --corpus-dir DIR  evolve: load/save the on-disk corpus here\n"
      "  --quiet           suppress per-run narration\n"
      "  --progress-json F stream NDJSON progress records (one per batch,\n"
      "                    with a metrics-registry snapshot) to F\n"
      "  --heartbeat-ms N  print a progress heartbeat to stderr every N ms\n";
  std::exit(code);
}

Cli parse(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cout << "wfd_fuzz: missing value for " << arg << "\n";
        usage(2);
      }
      return argv[++i];
    };
    // Numeric flags go through the checked parser (util/parse.hpp): full
    // consumption plus an explicit range, exit 2 naming the flag — so
    // "--runs=abc" can never silently become a 0-run campaign again.
    const auto u64 = [&](std::uint64_t lo, std::uint64_t hi) {
      return util::flag_u64("wfd_fuzz", arg, value(), lo, hi);
    };
    if (arg == "--target") {
      cli.target_specs.push_back(value());
    } else if (arg == "--runs") {
      cli.runs = u64(0, 100'000'000);
    } else if (arg == "--budget-ms") {
      cli.budget_ms = u64(0, 86'400'000);
    } else if (arg == "--seeds") {
      const std::string spec = value();
      const std::size_t colon = spec.find(':');
      const auto seed = [&](const std::string& text) {
        std::uint64_t out = 0;
        if (!util::parse_u64(text, &out)) {
          std::cerr << "wfd_fuzz: --seeds expects A or A:B (integers), got '"
                    << spec << "'\n";
          std::exit(2);
        }
        return out;
      };
      cli.seed_lo = seed(spec.substr(0, colon));
      cli.seed_hi =
          colon == std::string::npos ? cli.seed_lo : seed(spec.substr(colon + 1));
      if (cli.seed_hi < cli.seed_lo) cli.seed_hi = cli.seed_lo;
    } else if (arg == "--threads") {
      cli.threads = util::flag_int("wfd_fuzz", arg, value(), 0, 4096);
    } else if (arg == "--json") {
      cli.json_path = value();
    } else if (arg == "--repro-dir") {
      cli.repro_dir = value();
    } else if (arg == "--replay") {
      cli.replay_paths.push_back(value());
    } else if (arg == "--scenario") {
      cli.scenario_paths.push_back(value());
    } else if (arg == "--no-shrink") {
      cli.shrink = false;
    } else if (arg == "--max-shrink") {
      cli.max_shrink = static_cast<std::uint32_t>(u64(0, 1'000'000));
    } else if (arg == "--evolve") {
      cli.evolve = true;
    } else if (arg == "--generations") {
      cli.generations = u64(1, 1'000'000);
    } else if (arg == "--gen-size") {
      cli.gen_size = static_cast<std::uint32_t>(u64(1, 1'000'000));
    } else if (arg == "--max-family") {
      cli.max_family = static_cast<std::uint32_t>(u64(1, 65'536));
    } else if (arg == "--jobs") {
      cli.jobs = util::flag_int("wfd_fuzz", arg, value(), 1, 4096);
    } else if (arg == "--corpus-dir") {
      cli.corpus_dir = value();
    } else if (arg == "--expect-failure") {
      cli.expect_failure = true;
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (arg == "--progress-json") {
      cli.progress_json = value();
    } else if (arg == "--heartbeat-ms") {
      cli.heartbeat_ms = u64(0, 86'400'000);
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cout << "wfd_fuzz: unknown argument " << arg << "\n";
      usage(2);
    }
  }
  return cli;
}

std::vector<fuzz::TargetKind> resolve_targets(
    const std::vector<std::string>& specs) {
  std::vector<fuzz::TargetKind> pool;
  std::string error;
  if (!fuzz::resolve_target_pool(specs, &pool, &error)) {
    std::cout << "wfd_fuzz: " << error << "\n";
    usage(2);
  }
  return pool;  // empty = campaign default (legal)
}

int replay_main(const Cli& cli) {
  // The heavy lifting lives in fuzz::replay_path (recursive scan, per-file
  // verdicts, nothing stops at the first divergence) so tests can pin the
  // behavior without spawning this binary.
  std::uint64_t passed = 0;
  std::uint64_t total = 0;
  bool any_failed = false;
  for (const std::string& path : cli.replay_paths) {
    const fuzz::ReplayReport report = fuzz::replay_path(path);
    for (const fuzz::ReplayReport::Item& item : report.items) {
      if (item.ok) {
        std::cout << "REPLAY OK  " << item.path << "\n";
      } else {
        std::cout << "REPLAY FAIL " << item.path << ": " << item.why << "\n";
      }
    }
    passed += report.passed;
    total += report.items.size();
    if (!report.all_ok()) any_failed = true;
  }
  if (total == 0) {
    std::cout << "wfd_fuzz: nothing to replay\n";
    return 1;
  }
  std::cout << passed << "/" << total << " cases reproduced\n";
  return any_failed ? 1 : 0;
}

/// Write/verify one campaign repro; returns true iff the round trip
/// reproduced the recorded outcome bit-identically.
bool emit_repro(const fuzz::ReproCase& repro, const std::string& repro_dir,
                std::uint64_t seed) {
  std::string why;
  bool ok;
  if (!repro_dir.empty()) {
    // Full round trip: serialize, reload, re-run, compare bit-exactly.
    const std::string file = repro_dir + "/" +
                             to_string(repro.config.target) + "-" +
                             repro.oracle + "-seed" + std::to_string(seed) +
                             ".repro";
    fuzz::ReproCase reloaded;
    ok = fuzz::save_repro_file(file, repro) &&
         fuzz::load_repro_file(file, &reloaded, &why) &&
         fuzz::replay_case(reloaded, &why);
    std::cout << "  repro " << file << ": "
              << (ok ? "replay reproduces the failure bit-identically"
                     : "REPLAY MISMATCH: " + why)
              << "\n";
  } else {
    ok = fuzz::replay_case(repro, &why);
    std::cout << "  repro (" << repro.oracle << " at t=" << repro.at << "): "
              << (ok ? "replay reproduces the failure bit-identically"
                     : "REPLAY MISMATCH: " + why)
              << "\n";
  }
  return ok;
}

int evolve_main(const Cli& cli) {
  fuzz::EvolveOptions options;
  options.generations = cli.generations;
  options.generation_size = cli.gen_size;
  options.max_family = cli.max_family;
  options.jobs = cli.jobs;
  options.targets = resolve_targets(cli.target_specs);
  options.corpus_dir = cli.corpus_dir;
  options.shrink = cli.shrink;
  options.max_shrink_attempts = cli.max_shrink;

  if (!cli.repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.repro_dir, ec);
  }

  obs::Registry registry;
  if (!cli.progress_json.empty()) options.metrics = &registry;

  bench::JsonRows rows;
  std::uint64_t total_failing = 0;
  std::uint64_t repro_count = 0;
  bool all_replays_ok = true;

  for (std::uint64_t seed = cli.seed_lo; seed <= cli.seed_hi; ++seed) {
    options.master_seed = seed;
    const auto narrate = [&](const std::string& line) {
      if (!cli.quiet) std::cout << "  [seed " << seed << "] " << line << "\n";
    };
    const fuzz::EvolveResult campaign =
        fuzz::run_evolve_campaign(options, narrate);
    const fuzz::EvolveStats& stats = campaign.stats;
    total_failing += stats.failing;

    std::cout << "evolve seed=" << seed << ": " << stats.executed << " runs ("
              << stats.cold_runs << " cold, " << stats.milestone_runs
              << " milestone), "
              << stats.failing << " failing, " << stats.coverage_bits
              << " coverage bits, corpus " << stats.corpus_entries << " ("
              << stats.novel << " novel), " << stats.shrink_runs
              << " shrink runs, " << stats.elapsed_ms << " ms\n";
    for (const auto& [oracle, count] : stats.oracle_failures) {
      std::cout << "  oracle " << oracle << ": " << count << " failing run(s)\n";
    }

    rows.begin_row();
    rows.field("mode", "evolve")
        .field("master_seed", seed)
        .field("executed", stats.executed)
        .field("failing", stats.failing)
        .field("coverage_bits", stats.coverage_bits)
        .field("corpus_size", stats.corpus_entries)
        .field("novel", stats.novel)
        .field("families", stats.families)
        .field("cold_runs", stats.cold_runs)
        .field("milestone_runs", stats.milestone_runs)
        .field("shrink_runs", stats.shrink_runs)
        .field("elapsed_ms", stats.elapsed_ms)
        .field("repros", campaign.repros.size());
    for (const auto& [oracle, count] : stats.oracle_failures) {
      rows.field("fail_" + oracle, count);
    }

    for (const fuzz::ReproCase& repro : campaign.repros) {
      if (repro.oracle == "none") continue;
      ++repro_count;
      all_replays_ok =
          emit_repro(repro, cli.repro_dir, seed) && all_replays_ok;
    }
  }

  if (!cli.json_path.empty() && !rows.write_file(cli.json_path)) {
    std::cout << "wfd_fuzz: cannot write " << cli.json_path << "\n";
    return 2;
  }
  if (cli.expect_failure) {
    const bool ok = repro_count > 0 && all_replays_ok;
    std::cout << (ok ? "expected failure found, shrunk and reproduced\n"
                     : "EXPECTED A FAILURE but none was found/reproduced\n");
    return ok ? 0 : 1;
  }
  if (total_failing > 0) {
    std::cout << total_failing << " oracle failure(s) — see repros above\n";
    return 1;
  }
  std::cout << "all runs clean\n";
  return 0;
}

int scenario_main(const Cli& cli) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& path : cli.scenario_paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (const auto& entry : fs::directory_iterator(path, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 14 &&
            name.compare(name.size() - 14, 14, ".scenario.json") == 0) {
          files.push_back(entry.path().string());
        }
      }
    } else {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cout << "wfd_fuzz: no scenario vectors to run\n";
    return 1;
  }
  int failed = 0;
  for (const std::string& file : files) {
    scenario::Scenario scenario;
    std::string error;
    if (!scenario::load_scenario_file(file, &scenario, &error)) {
      std::cout << "LOAD FAIL  " << file << ": " << error << "\n";
      ++failed;
      continue;
    }
    std::string engines;
    if (scenario.supports_sim()) engines += "sim ";
    if (scenario.supports_mc()) engines += "mc ";
    if (scenario.supports_fuzz()) engines += "fuzz ";
    if (!engines.empty()) engines.pop_back();
    std::string why;
    if (scenario::check_expectations(scenario, &why)) {
      std::cout << "SCENARIO OK   " << scenario.name << " [" << engines
                << "]\n";
    } else {
      std::cout << "SCENARIO FAIL " << scenario.name << ": " << why << "\n";
      ++failed;
    }
  }
  std::cout << files.size() - failed << "/" << files.size()
            << " scenarios agreed with their expected verdicts\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef SIGPIPE
  // The evolve loop's --jobs workers ship results over pipes; a reader
  // that died mid-campaign must surface as an EPIPE write error (stripe
  // re-run), never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  const Cli cli = parse(argc, argv);
  if (!cli.replay_paths.empty() && !cli.scenario_paths.empty()) {
    std::cout << "wfd_fuzz: --replay and --scenario are separate modes\n";
    return 2;
  }
  if (!cli.scenario_paths.empty()) return scenario_main(cli);
  if (!cli.replay_paths.empty()) return replay_main(cli);
  if (cli.evolve) return evolve_main(cli);

  fuzz::CampaignOptions options;
  options.runs = cli.runs;
  options.budget_ms = cli.budget_ms;
  options.threads = cli.threads;
  options.targets = resolve_targets(cli.target_specs);
  options.shrink = cli.shrink;
  options.max_shrink_attempts = cli.max_shrink;

  if (!cli.repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.repro_dir, ec);
  }

  std::ofstream progress_out;
  if (!cli.progress_json.empty()) {
    progress_out.open(cli.progress_json);
    if (!progress_out) {
      std::cout << "wfd_fuzz: cannot write " << cli.progress_json << "\n";
      return 2;
    }
  }
  obs::Registry registry;
  const bool instrument = progress_out.is_open() || cli.heartbeat_ms > 0;
  if (instrument) options.metrics = &registry;

  bench::JsonRows rows;
  std::uint64_t total_failing = 0;
  std::uint64_t repro_count = 0;
  bool all_replays_ok = true;

  for (std::uint64_t seed = cli.seed_lo; seed <= cli.seed_hi; ++seed) {
    options.master_seed = seed;
    const auto narrate = [&](const std::string& line) {
      if (!cli.quiet) std::cout << "  [seed " << seed << "] " << line << "\n";
    };
    std::uint64_t last_beat = 0;
    if (instrument) {
      options.on_progress = [&](std::uint64_t completed, std::uint64_t total,
                                std::uint64_t elapsed) {
        if (cli.heartbeat_ms > 0 &&
            (elapsed - last_beat >= cli.heartbeat_ms ||
             (total > 0 && completed >= total))) {
          last_beat = elapsed;
          std::cerr << obs::heartbeat_line(
                           "fuzz seed " + std::to_string(seed), completed,
                           total, elapsed)
                    << "\n";
        }
        if (progress_out.is_open()) {
          obs::JsonObject record;
          record.field("type", "progress")
              .field("seed", seed)
              .field("completed", completed)
              .field("total", total)
              .field("elapsed_ms", elapsed)
              .raw("metrics", registry.snapshot().to_json());
          record.write_line(progress_out);
        }
      };
    }
    const fuzz::CampaignResult campaign =
        fuzz::run_fuzz_campaign(options, narrate);
    const fuzz::CampaignStats& stats = campaign.stats;
    total_failing += stats.failing;
    if (progress_out.is_open()) {
      obs::JsonObject record;
      record.field("type", "campaign")
          .field("seed", seed)
          .field("executed", stats.executed)
          .field("failing", stats.failing)
          .field("corpus_size", stats.corpus_size)
          .field("novel", stats.novel)
          .field("shrink_runs", stats.shrink_runs)
          .field("elapsed_ms", stats.elapsed_ms)
          .raw("metrics", registry.snapshot().to_json());
      record.write_line(progress_out);
    }

    std::cout << "campaign seed=" << seed << ": " << stats.executed
              << " runs, " << stats.failing << " failing, corpus "
              << stats.corpus_size << " (" << stats.novel << " novel), "
              << stats.total_steps << " sim steps, " << stats.shrink_runs
              << " shrink runs, " << stats.elapsed_ms << " ms\n";
    for (const auto& [oracle, count] : stats.oracle_failures) {
      std::cout << "  oracle " << oracle << ": " << count << " failing run(s)\n";
    }

    rows.begin_row();
    rows.field("master_seed", seed)
        .field("executed", stats.executed)
        .field("failing", stats.failing)
        .field("corpus_size", stats.corpus_size)
        .field("novel", stats.novel)
        .field("shrink_runs", stats.shrink_runs)
        .field("total_steps", stats.total_steps)
        .field("total_messages", stats.total_messages)
        .field("total_meals", stats.total_meals)
        .field("elapsed_ms", stats.elapsed_ms)
        .field("repros", campaign.repros.size());
    for (const auto& [oracle, count] : stats.oracle_failures) {
      rows.field("fail_" + oracle, count);
    }

    for (const fuzz::ReproCase& repro : campaign.repros) {
      if (repro.oracle == "none") continue;
      ++repro_count;
      all_replays_ok =
          emit_repro(repro, cli.repro_dir, seed) && all_replays_ok;
    }
  }

  if (!cli.json_path.empty() && !rows.write_file(cli.json_path)) {
    std::cout << "wfd_fuzz: cannot write " << cli.json_path << "\n";
    return 2;
  }

  if (cli.expect_failure) {
    const bool ok = repro_count > 0 && all_replays_ok;
    std::cout << (ok ? "expected failure found, shrunk and reproduced\n"
                     : "EXPECTED A FAILURE but none was found/reproduced\n");
    return ok ? 0 : 1;
  }
  if (total_failing > 0) {
    std::cout << total_failing << " oracle failure(s) — see repros above\n";
    return 1;
  }
  std::cout << "all runs clean\n";
  return 0;
}
