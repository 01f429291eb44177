#include "fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_set>

#include "harness/campaign.hpp"
#include "mc/hash.hpp"
#include "sim/rng.hpp"

namespace wfd::fuzz {

namespace {

constexpr TargetKind kLegal[] = {
    TargetKind::kDining, TargetKind::kScriptedDining, TargetKind::kExtraction,
    TargetKind::kScriptedExtraction};
constexpr TargetKind kBroken[] = {TargetKind::kBrokenSingleInstance,
                                  TargetKind::kBrokenForkBased};

}  // namespace

std::vector<TargetKind> legal_targets() {
  return {std::begin(kLegal), std::end(kLegal)};
}

std::vector<TargetKind> broken_targets() {
  return {std::begin(kBroken), std::end(kBroken)};
}

bool resolve_target_pool(const std::vector<std::string>& specs,
                         std::vector<TargetKind>* out, std::string* error) {
  std::vector<TargetKind> pool;
  const auto add = [&pool](TargetKind target) {
    if (std::find(pool.begin(), pool.end(), target) == pool.end()) {
      pool.push_back(target);
    }
  };
  for (const std::string& spec : specs) {
    std::size_t begin = 0;
    while (begin <= spec.size()) {
      const std::size_t comma = spec.find(',', begin);
      const std::string name =
          spec.substr(begin, comma == std::string::npos ? std::string::npos
                                                        : comma - begin);
      if (name == "legal") {
        for (TargetKind t : legal_targets()) add(t);
      } else if (name == "broken") {
        for (TargetKind t : broken_targets()) add(t);
      } else if (name == "all") {
        for (TargetKind t : legal_targets()) add(t);
        for (TargetKind t : broken_targets()) add(t);
      } else if (!name.empty()) {
        TargetKind target;
        if (!target_from_string(name, &target)) {
          if (error != nullptr) *error = "unknown target " + name;
          return false;
        }
        add(target);
      }
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
  }
  *out = std::move(pool);
  return true;
}

FuzzConfig sample_config(std::uint64_t master_seed, std::uint64_t index,
                         const std::vector<TargetKind>& pool) {
  sim::Rng rng(mc::detail::mix64(master_seed) ^
               mc::detail::mix64(index * 0x9e3779b97f4a7c15ULL + 1));
  FuzzConfig config;
  config.seed = rng.next();
  const std::vector<TargetKind>& targets = pool.empty() ? legal_targets() : pool;
  config.target = targets[rng.below(targets.size())];

  const bool extraction = is_extraction_target(config.target);
  config.n = static_cast<std::uint32_t>(extraction ? rng.range(2, 3)
                                                   : rng.range(2, 8));
  config.steps = rng.range(40000, 90000);
  config.graph = static_cast<GraphKind>(rng.below(5));

  // Swarm sampling: each run draws one point per feature axis, so distinct
  // runs exercise very different schedule shapes instead of averaging over
  // one mixed distribution.
  config.scheduler = static_cast<SchedulerKind>(rng.below(4));
  if (config.scheduler == SchedulerKind::kWeighted) {
    const std::uint64_t spread = rng.chance(0.3) ? 500 : 16;
    for (std::uint32_t p = 0; p < config.n; ++p) {
      config.weights.push_back(rng.range(1, spread));
    }
  }
  if (config.scheduler == SchedulerKind::kPausing) {
    const std::uint64_t windows = rng.range(1, 3);
    for (std::uint64_t w = 0; w < windows; ++w) {
      PausePlan pause;
      pause.pid = static_cast<sim::ProcessId>(rng.below(config.n));
      pause.from = rng.range(100, 15000);
      pause.until = pause.from + rng.range(100, 6000);
      config.pauses.push_back(pause);
    }
  }

  config.delay = static_cast<DelayKind>(rng.below(4));
  config.delay_min = rng.range(1, 4);
  config.delay_max = config.delay_min + rng.range(0, rng.chance(0.3) ? 28 : 10);
  config.geo_p = 0.05 + rng.uniform() * 0.45;
  config.gst = rng.range(1000, 20000);

  if (rng.chance(0.45)) {
    const std::uint64_t count = rng.range(1, std::max<std::uint64_t>(1, config.n / 2));
    for (std::uint64_t c = 0; c < count; ++c) {
      config.crashes.push_back(
          {static_cast<sim::ProcessId>(rng.below(config.n)),
           rng.range(100, 20000)});
    }
  }
  if (rng.chance(0.5)) {
    const std::uint64_t count = rng.range(1, 4);
    for (std::uint64_t c = 0; c < count; ++c) {
      detect::MistakeWindow window;
      window.watcher = static_cast<sim::ProcessId>(rng.below(config.n));
      window.subject = static_cast<sim::ProcessId>(rng.below(config.n));
      window.from = rng.range(0, 12000);
      window.until = window.from + rng.range(50, 3000);
      config.mistakes.push_back(window);
    }
  }
  config.detector_lag = rng.range(5, 100);

  config.exclusive_from = rng.range(0, 5000);
  config.semantics = rng.chance(0.5) ? dining::BoxSemantics::kLockout
                                     : dining::BoxSemantics::kForkBased;
  config.member0_burst =
      rng.chance(0.4) ? static_cast<std::uint32_t>(rng.range(1, 4)) : 0;
  config.grant_holdoff = rng.chance(0.3) ? rng.range(1, 30) : 0;
  return config;
}

ShrinkOutcome shrink_case(const FuzzConfig& failing,
                          std::uint32_t max_attempts) {
  ShrinkOutcome out;
  FuzzConfig current = normalize(failing);
  RunResult base = run_config(current);
  ++out.runs;
  if (base.ok()) {
    // The "failing" case does not fail: shrinking it would delta-debug
    // noise into a bogus reproducer. Fail loudly instead of emitting one.
    out.repro = ReproCase{current, "none", 0, ""};
    out.reproduced = false;
    return out;
  }
  const std::string oracle = base.primary()->oracle;

  const auto same_config = [](const FuzzConfig& a, const FuzzConfig& b) {
    return config_to_json(a) == config_to_json(b);
  };
  const auto try_candidate = [&](FuzzConfig candidate) {
    if (out.attempts >= max_attempts) return false;
    candidate = normalize(candidate);
    if (same_config(candidate, current)) return false;
    ++out.attempts;
    ++out.runs;
    const RunResult r = run_config(candidate);
    if (!r.ok() && r.primary()->oracle == oracle) {
      current = std::move(candidate);
      ++out.accepted;
      return true;
    }
    return false;
  };

  // ddmin over a plan list: all-gone, then halves, then single removals.
  const auto shrink_list = [&](auto get, auto set) {
    {
      FuzzConfig candidate = current;
      if (!get(candidate).empty()) {
        set(candidate, {});
        if (try_candidate(candidate)) return;
      }
    }
    bool progress = true;
    while (progress && out.attempts < max_attempts) {
      progress = false;
      const auto items = get(current);
      if (items.size() <= 1) break;
      for (int half = 0; half < 2 && !progress; ++half) {
        auto copy = items;
        const auto mid =
            copy.begin() + static_cast<std::ptrdiff_t>(copy.size() / 2);
        if (half == 0) {
          copy.erase(copy.begin(), mid);
        } else {
          copy.erase(mid, copy.end());
        }
        FuzzConfig candidate = current;
        set(candidate, copy);
        progress = try_candidate(candidate);
      }
      for (std::size_t i = 0; i < items.size() && !progress; ++i) {
        auto copy = items;
        copy.erase(copy.begin() + static_cast<std::ptrdiff_t>(i));
        FuzzConfig candidate = current;
        set(candidate, copy);
        progress = try_candidate(candidate);
      }
    }
  };

  // Binary descent of one scalar toward `floor` (floor-first: one run often
  // suffices when the knob is irrelevant to the failure).
  const auto shrink_scalar = [&](auto get, auto set, std::uint64_t floor) {
    while (out.attempts < max_attempts) {
      const std::uint64_t value = get(current);
      if (value <= floor) return;
      {
        FuzzConfig candidate = current;
        set(candidate, floor);
        if (try_candidate(candidate)) continue;
      }
      const std::uint64_t mid = floor + (value - floor) / 2;
      if (mid == value) return;
      FuzzConfig candidate = current;
      set(candidate, mid);
      if (!try_candidate(candidate)) return;
    }
  };

  for (int sweep = 0; sweep < 3 && out.attempts < max_attempts; ++sweep) {
    const std::uint32_t accepted_before = out.accepted;

    shrink_list([](FuzzConfig& c) -> std::vector<CrashPlan>& { return c.crashes; },
                [](FuzzConfig& c, std::vector<CrashPlan> v) { c.crashes = std::move(v); });
    shrink_list([](FuzzConfig& c) -> std::vector<detect::MistakeWindow>& { return c.mistakes; },
                [](FuzzConfig& c, std::vector<detect::MistakeWindow> v) { c.mistakes = std::move(v); });
    shrink_list([](FuzzConfig& c) -> std::vector<PausePlan>& { return c.pauses; },
                [](FuzzConfig& c, std::vector<PausePlan> v) { c.pauses = std::move(v); });

    // Scheduler and delay simplification: prefer the most regular adversary
    // that still exhibits the failure.
    if (current.scheduler != SchedulerKind::kRoundRobin) {
      if (current.scheduler != SchedulerKind::kRandom) {
        FuzzConfig candidate = current;
        candidate.scheduler = SchedulerKind::kRandom;
        candidate.weights.clear();
        candidate.pauses.clear();
        try_candidate(candidate);
      }
      FuzzConfig candidate = current;
      candidate.scheduler = SchedulerKind::kRoundRobin;
      candidate.weights.clear();
      candidate.pauses.clear();
      try_candidate(candidate);
    }
    if (current.delay != DelayKind::kUniform) {
      FuzzConfig candidate = current;
      candidate.delay = DelayKind::kUniform;
      try_candidate(candidate);
    }
    shrink_scalar([](FuzzConfig& c) { return c.delay_max; },
                  [](FuzzConfig& c, std::uint64_t v) { c.delay_max = v; },
                  current.delay_min);
    if (current.graph != GraphKind::kPath && current.graph != GraphKind::kPair) {
      FuzzConfig candidate = current;
      candidate.graph = GraphKind::kPath;
      try_candidate(candidate);
    }
    for (std::uint32_t smaller = 2; smaller < current.n; ++smaller) {
      FuzzConfig candidate = current;
      candidate.n = smaller;
      if (try_candidate(candidate)) break;
    }
    if (current.n == 2 && current.graph != GraphKind::kPair) {
      FuzzConfig candidate = current;
      candidate.graph = GraphKind::kPair;
      try_candidate(candidate);
    }
    shrink_scalar([](FuzzConfig& c) { return c.exclusive_from; },
                  [](FuzzConfig& c, std::uint64_t v) { c.exclusive_from = v; },
                  0);
    shrink_scalar([](FuzzConfig& c) { return static_cast<std::uint64_t>(c.member0_burst); },
                  [](FuzzConfig& c, std::uint64_t v) { c.member0_burst = static_cast<std::uint32_t>(v); },
                  0);
    shrink_scalar([](FuzzConfig& c) { return c.grant_holdoff; },
                  [](FuzzConfig& c, std::uint64_t v) { c.grant_holdoff = v; },
                  0);
    shrink_scalar([](FuzzConfig& c) { return c.steps; },
                  [](FuzzConfig& c, std::uint64_t v) { c.steps = v; }, 2000);

    if (out.accepted == accepted_before) break;  // fixed point
  }

  const RunResult final_run = run_config(current);
  ++out.runs;
  if (!final_run.ok()) {
    const OracleFailure& failure = *final_run.primary();
    out.repro = ReproCase{current, failure.oracle, failure.at, failure.detail};
  } else {
    // Cannot happen for accepted candidates (each was re-validated), but
    // stay honest if it does: report the pre-shrink case.
    out.repro = ReproCase{normalize(failing), oracle, base.primary()->at,
                          base.primary()->detail};
  }
  return out;
}

bool replay_case(const ReproCase& repro, std::string* why) {
  const RunResult result = run_config(repro.config);
  const auto mismatch = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  if (repro.oracle == "none") {
    if (result.ok()) return true;
    return mismatch("expected a clean run, got " + result.primary()->oracle +
                    ": " + result.primary()->detail);
  }
  if (result.ok()) {
    return mismatch("expected " + repro.oracle + " to fail, but the run was clean");
  }
  const OracleFailure& failure = *result.primary();
  if (failure.oracle != repro.oracle) {
    return mismatch("expected oracle " + repro.oracle + ", got " + failure.oracle);
  }
  if (failure.at != repro.at) {
    std::ostringstream out;
    out << "violation time diverged: expected t=" << repro.at << ", got t="
        << failure.at;
    return mismatch(out.str());
  }
  if (!repro.detail.empty() && failure.detail != repro.detail) {
    return mismatch("violation detail diverged: expected \"" + repro.detail +
                    "\", got \"" + failure.detail + "\"");
  }
  return true;
}

ReplayReport replay_path(const std::string& path) {
  namespace fs = std::filesystem;
  ReplayReport report;
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    // Recursive scan: corpus directories grow subdirectories (per-campaign
    // shards, per-oracle bins) and every stored case must be exercised.
    for (auto it = fs::recursive_directory_iterator(path, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file() && it->path().extension() == ".repro") {
        files.push_back(it->path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  for (const std::string& file : files) {
    ReplayReport::Item item;
    item.path = file;
    ReproCase repro;
    std::string error;
    if (!load_repro_file(file, &repro, &error)) {
      item.ok = false;
      item.why = "load failed: " + error;
    } else {
      item.ok = replay_case(repro, &item.why);
    }
    if (item.ok) ++report.passed; else ++report.failed;
    report.items.push_back(std::move(item));
  }
  return report;
}

CampaignResult run_fuzz_campaign(
    const CampaignOptions& options,
    const std::function<void(const std::string&)>& narrate) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto elapsed_ms = [&] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              start)
            .count());
  };

  CampaignOptions opts = options;
  if (opts.runs == 0 && opts.budget_ms == 0) opts.runs = 100;
  const std::vector<TargetKind> base_pool =
      opts.targets.empty() ? legal_targets() : opts.targets;

  // Campaign-level metrics: updated only from this (single) thread, in the
  // batch-accounting loop, so they never race and never perturb the runs.
  obs::Registry::Id m_runs = 0, m_failing = 0, m_novel = 0, m_oracle = 0,
                    m_shrink = 0;
  std::unique_ptr<obs::Scope> mscope;
  if (opts.metrics != nullptr) {
    m_runs = opts.metrics->counter("fuzz.runs");
    m_failing = opts.metrics->counter("fuzz.failing");
    m_novel = opts.metrics->counter("fuzz.novel");
    m_oracle = opts.metrics->counter("fuzz.oracle_firings");
    m_shrink = opts.metrics->counter("fuzz.shrink_runs");
    mscope = std::make_unique<obs::Scope>(*opts.metrics);
  }
  const auto report_progress = [&](std::uint64_t completed) {
    if (opts.on_progress) opts.on_progress(completed, opts.runs, elapsed_ms());
  };

  CampaignResult result;
  std::unordered_set<std::uint64_t> corpus;
  std::map<TargetKind, std::pair<std::uint64_t, std::uint64_t>> novelty_rate;
  // Raw failing configs, one per (target, oracle) shape, kept in discovery
  // order; only these get the (expensive) shrink treatment.
  std::vector<std::pair<FuzzConfig, std::string>> to_shrink;
  std::set<std::pair<std::string, std::string>> shrink_keys;

  std::vector<TargetKind> pool = base_pool;
  std::uint64_t index = 0;
  const std::size_t batch_size = std::max<std::size_t>(
      8, static_cast<std::size_t>(opts.threads > 0 ? opts.threads : 1) * 4);

  for (;;) {
    if (opts.abort != nullptr && opts.abort->load(std::memory_order_acquire)) {
      break;  // requester gone: stop sampling, keep what we graded
    }
    if (opts.runs > 0 && index >= opts.runs) break;
    if (opts.budget_ms > 0 && elapsed_ms() >= opts.budget_ms) break;
    std::size_t this_batch = batch_size;
    if (opts.runs > 0) {
      this_batch = std::min<std::size_t>(this_batch, opts.runs - index);
    }

    std::vector<FuzzConfig> configs;
    configs.reserve(this_batch);
    for (std::size_t i = 0; i < this_batch; ++i) {
      configs.push_back(sample_config(opts.master_seed, index + i, pool));
    }
    const std::vector<RunResult> results = harness::run_campaign(
        configs, [](const FuzzConfig& c) { return run_config(c); },
        opts.threads);

    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& run = results[i];
      ++result.stats.executed;
      result.stats.total_steps += run.stats.steps;
      result.stats.total_messages += run.stats.messages_sent;
      result.stats.total_meals += run.stats.total_meals;
      if (mscope) mscope->add(m_runs);
      auto& [samples, novel] = novelty_rate[configs[i].target];
      ++samples;
      if (corpus.insert(run.signature).second) {
        ++result.stats.novel;
        ++novel;
        if (mscope) mscope->add(m_novel);
      }
      if (!run.ok()) {
        ++result.stats.failing;
        if (mscope) {
          mscope->add(m_failing);
          mscope->add(m_oracle, run.failures.size());
        }
        const std::string& oracle = run.primary()->oracle;
        ++result.stats.oracle_failures[oracle];
        const std::pair<std::string, std::string> key{
            to_string(configs[i].target), oracle};
        if (shrink_keys.insert(key).second &&
            to_shrink.size() < opts.max_repros) {
          to_shrink.emplace_back(configs[i], oracle);
          if (narrate) {
            narrate("run " + std::to_string(index + i) + " [" + key.first +
                    "] failed oracle " + oracle + ": " +
                    run.primary()->detail);
          }
        }
      }
    }
    index += this_batch;
    report_progress(index);

    // Budget-bound campaigns spend the remaining time where novel schedule
    // shapes still appear: the highest-novelty-rate target gets extra
    // sampling weight. Fixed-run campaigns keep the pool static so the
    // outcome is a pure function of (master_seed, runs).
    if (opts.runs == 0 && base_pool.size() > 1) {
      TargetKind best = base_pool.front();
      double best_rate = -1.0;
      for (TargetKind target : base_pool) {
        const auto& [samples, novel] = novelty_rate[target];
        const double rate =
            samples == 0 ? 1.0
                         : static_cast<double>(novel) / static_cast<double>(samples);
        if (rate > best_rate) {
          best_rate = rate;
          best = target;
        }
      }
      pool = base_pool;
      pool.push_back(best);
      pool.push_back(best);
    }
  }
  result.stats.corpus_size = corpus.size();

  for (const auto& [config, oracle] : to_shrink) {
    if (opts.abort != nullptr && opts.abort->load(std::memory_order_acquire)) {
      break;
    }
    if (opts.shrink) {
      ShrinkOutcome outcome = shrink_case(config, opts.max_shrink_attempts);
      result.stats.shrink_runs += outcome.runs;
      if (mscope) mscope->add(m_shrink, outcome.runs);
      if (!outcome.reproduced) {
        // A recorded failure that no longer fails is itself a determinism
        // bug; surface it instead of shipping a "none" repro as a finding.
        if (narrate) {
          narrate("shrink of " + oracle +
                  " case did not reproduce the failure; dropping it");
        }
        continue;
      }
      if (narrate) {
        narrate("shrunk " + oracle + " case in " +
                std::to_string(outcome.attempts) + " attempts (" +
                std::to_string(outcome.accepted) + " reductions)");
      }
      result.repros.push_back(std::move(outcome.repro));
    } else {
      const FuzzConfig normalized = normalize(config);
      const RunResult rerun = run_config(normalized);
      ++result.stats.shrink_runs;
      if (mscope) mscope->add(m_shrink);
      if (!rerun.ok()) {
        result.repros.push_back(ReproCase{normalized, rerun.primary()->oracle,
                                          rerun.primary()->at,
                                          rerun.primary()->detail});
      }
    }
  }

  result.stats.elapsed_ms = elapsed_ms();
  report_progress(result.stats.executed);
  return result;
}

}  // namespace wfd::fuzz
