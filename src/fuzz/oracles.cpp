#include "fuzz/oracles.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "detect/properties.hpp"
#include "dining/client.hpp"
#include "dining/instance.hpp"
#include "dining/monitors.hpp"
#include "dining/scripted_box.hpp"
#include "graph/conflict_graph.hpp"
#include "harness/rig.hpp"
#include "mc/hash.hpp"
#include "reduce/ablation.hpp"
#include "reduce/extraction.hpp"
#include "sim/engine.hpp"

namespace wfd::fuzz {

namespace {

constexpr sim::Port kDiningPort = 10;
constexpr std::uint64_t kDiningTag = 0x42;
constexpr std::uint64_t kExtractTag = 0xED;

graph::ConflictGraph make_graph(GraphKind kind, std::uint32_t n) {
  switch (kind) {
    case GraphKind::kPair: return graph::make_pair();
    case GraphKind::kRing: return graph::make_ring(n);
    case GraphKind::kClique: return graph::make_clique(n);
    case GraphKind::kStar: return graph::make_star(n);
    case GraphKind::kPath: return graph::make_path(n);
  }
  return graph::make_ring(n);
}

/// Watches step/crash events for simulator-contract breaches while the run
/// is live (retaining nothing).
struct EngineInvariantObserver {
  const sim::Engine* engine = nullptr;
  sim::Time last_time = 0;
  bool time_regressed = false;
  sim::Time regressed_at = 0;
  bool dead_step = false;
  sim::Time dead_step_at = 0;
  sim::ProcessId dead_step_pid = sim::kNoProcess;

  void on_event(const sim::Event& event) {
    if (event.time < last_time && !time_regressed) {
      time_regressed = true;
      regressed_at = event.time;
    }
    last_time = std::max(last_time, event.time);
    if (event.kind == sim::EventKind::kStep &&
        event.time >= engine->crash_time(event.pid) && !dead_step) {
      dead_step = true;
      dead_step_at = event.time;
      dead_step_pid = event.pid;
    }
  }
};

std::string fmt(const char* pattern, std::uint64_t a, std::uint64_t b = 0,
                std::uint64_t c = 0) {
  std::ostringstream out;
  for (const char* p = pattern; *p != '\0'; ++p) {
    if (*p == '%') {
      switch (*++p) {
        case 'a': out << a; break;
        case 'b': out << b; break;
        case 'c': out << c; break;
        default: out << *p;
      }
    } else {
      out << *p;
    }
  }
  return out.str();
}

std::uint64_t log2_bucket(std::uint64_t value) {
  std::uint64_t bucket = 0;
  while (value > 0) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

std::uint64_t hash_string(const std::string& text) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const char c : text) {
    h = mc::detail::mix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

std::uint64_t compute_signature(const FuzzConfig& config,
                                const RunResult& result) {
  // The signature is BY CONSTRUCTION the mix64-fold of run_features in
  // order (first feature seeds the hash), so the per-axis view the coverage
  // map consumes and the corpus signature can never drift apart — and the
  // fold below reproduces the original hand-rolled fold bit for bit.
  using mc::detail::mix64;
  const std::vector<RunFeature> features = run_features(config, result);
  std::uint64_t h = mix64(features.front().value);
  for (std::size_t i = 1; i < features.size(); ++i) {
    h = mix64(h ^ features[i].value);
  }
  return h;
}

}  // namespace

std::vector<RunFeature> run_features(const FuzzConfig& config,
                                     const RunResult& result) {
  std::vector<RunFeature> features;
  features.reserve(26);
  std::uint32_t axis = 0;
  const auto emit = [&](std::uint64_t value) {
    features.push_back(RunFeature{axis++, value});
  };
  emit(static_cast<std::uint64_t>(config.target));
  emit(config.n);
  emit(static_cast<std::uint64_t>(config.scheduler));
  emit(static_cast<std::uint64_t>(config.delay));
  emit(static_cast<std::uint64_t>(config.graph));
  emit(static_cast<std::uint64_t>(config.semantics));
  emit(config.crashes.size());
  emit(config.mistakes.size());
  emit(config.pauses.size());
  emit(config.member0_burst > 0 ? 1 : 0);
  emit(config.grant_holdoff > 0 ? 1 : 0);
  emit(config.never_exit_member >= 0 ? 1 : 0);
  emit(log2_bucket(effective_delay_max(config)));
  emit(log2_bucket(result.stats.total_meals));
  emit(log2_bucket(result.stats.exclusion_violations));
  emit(log2_bucket(result.stats.detector_flips));
  emit(log2_bucket(result.stats.messages_sent));
  // Net-adversary features fold in only when present, so every reliable-
  // channel signature (the entire existing corpus) is unchanged. The axis
  // counter still advances over skipped axes: an axis id names the same
  // quantity in every run, adversarial or not.
  axis = 17;
  if (has_network_adversary(config)) {
    emit(static_cast<std::uint64_t>(config.loss_rate * 1000.0));
    emit(static_cast<std::uint64_t>(config.dup_rate * 1000.0));
    emit(config.partitions.size());
    emit(log2_bucket(result.stats.messages_lost));
    emit(log2_bucket(result.stats.messages_duplicated));
    // The retransmit wrapper folds only when on, so every one-shot-channel
    // signature (all pre-existing adversary vectors) is unchanged.
    if (config.retransmit_every > 0) {
      emit(config.retransmit_every);
      emit(config.retransmit_max);
      emit(log2_bucket(result.stats.messages_retransmitted));
    }
  }
  axis = 25;
  if (const OracleFailure* failure = result.primary()) {
    emit(hash_string(failure->oracle));
  }
  return features;
}

FuzzConfig normalize(FuzzConfig config) {
  const bool extraction = is_extraction_target(config.target);
  // Population: a full extraction is n(n-1) witness/subject pairs and
  // 2n(n-1) dining instances — quadratic, so it gets a tighter cap.
  const std::uint32_t max_n = extraction ? 3 : 8;
  config.n = std::clamp<std::uint32_t>(config.n, 2, max_n);
  if (config.target == TargetKind::kBrokenSingleInstance) config.n = 2;
  // graph::make_pair() is a fixed 2-vertex graph; with more members the
  // instance would index past it, so keep the topology consistent with n.
  if (config.graph == GraphKind::kPair && config.n != 2) {
    config.graph = GraphKind::kPath;
  }
  config.steps = std::clamp<std::uint64_t>(config.steps, 2000, 2000000);

  config.delay_min = std::clamp<sim::Time>(config.delay_min, 1, 64);
  config.delay_max = std::clamp<sim::Time>(config.delay_max, 1, 64);
  if (config.delay_max < config.delay_min) config.delay_max = config.delay_min;
  config.geo_p = std::clamp(config.geo_p, 0.02, 0.9);
  if (config.gst > config.steps / 2) config.gst = config.steps / 2;

  // Disturbances must end with runway left: every plan time is clamped to
  // the first half of the run so the post-deadline suffix stays long.
  const sim::Time half = config.steps / 2;
  const bool scripted_dining = config.target == TargetKind::kScriptedDining ||
                               config.target == TargetKind::kBrokenForkBased;
  std::vector<CrashPlan> crashes;
  for (CrashPlan crash : config.crashes) {
    if (crash.pid >= config.n) continue;
    // The scripted-dining manager lives on member 0's host; crashing it
    // voids the box's conditional wait-freedom (legal, but unfalsifiable).
    if (scripted_dining && crash.pid == 0) continue;
    if (std::any_of(crashes.begin(), crashes.end(),
                    [&](const CrashPlan& c) { return c.pid == crash.pid; })) {
      continue;
    }
    crash.at = std::clamp<sim::Time>(crash.at, 1, half);
    crashes.push_back(crash);
    // Keep a majority alive so every target retains correct watchers,
    // subjects and neighbors to grade.
    if (crashes.size() >= (config.n - 1) / 2 + (config.n > 2 ? 1 : 0)) break;
  }
  if (config.target == TargetKind::kBrokenSingleInstance) crashes.clear();
  config.crashes = std::move(crashes);

  std::vector<PausePlan> pauses;
  for (PausePlan pause : config.pauses) {
    if (pause.pid >= config.n) continue;
    pause.from = std::min(pause.from, half);
    pause.until = std::min(pause.until, half);
    if (pause.from >= pause.until) continue;
    pauses.push_back(pause);
    if (pauses.size() >= 8) break;
  }
  config.pauses = std::move(pauses);
  if (config.scheduler != SchedulerKind::kPausing) config.pauses.clear();
  if (config.scheduler != SchedulerKind::kWeighted) config.weights.clear();
  config.weights.resize(config.n, 1);
  for (auto& weight : config.weights) {
    weight = std::clamp<std::uint64_t>(weight, 1, 1000);
  }

  std::vector<detect::MistakeWindow> mistakes;
  for (detect::MistakeWindow window : config.mistakes) {
    if (window.watcher >= config.n || window.subject >= config.n ||
        window.watcher == window.subject) {
      continue;
    }
    window.from = std::min(window.from, half);
    window.until = std::min(window.until, half);
    if (window.from >= window.until) continue;
    mistakes.push_back(window);
    if (mistakes.size() >= 8) break;
  }
  config.mistakes = std::move(mistakes);
  config.detector_lag = std::clamp<sim::Time>(config.detector_lag, 1, 200);

  // Network adversary: rates strictly below 1 (rate 1 would sever every
  // channel — unfalsifiable, like crashing the whole population), windows on
  // real pids cutting a real bipartition. Healing windows end in the first
  // half like every other disturbance; permanent ones (kNever) stay — a run
  // under a permanent partition is EXPECTED to fail its eventual oracles,
  // which is what the adversary vectors demonstrate.
  config.loss_rate = std::clamp(config.loss_rate, 0.0, 0.9);
  config.dup_rate = std::clamp(config.dup_rate, 0.0, 0.9);
  config.dup_spread = std::clamp<sim::Time>(config.dup_spread, 1, 64);
  // Retransmit: bound the retry schedule, and collapse a zero-attempt
  // wrapper to "off" so the two off-spellings normalize identically.
  config.retransmit_every = std::min<sim::Time>(config.retransmit_every, 4096);
  config.retransmit_max = std::min<std::uint32_t>(config.retransmit_max, 64);
  if (config.retransmit_max == 0) config.retransmit_every = 0;
  std::vector<sim::PartitionWindow> partitions;
  for (sim::PartitionWindow window : config.partitions) {
    std::vector<sim::ProcessId> side;
    for (const sim::ProcessId pid : window.side) {
      if (pid < config.n &&
          std::find(side.begin(), side.end(), pid) == side.end()) {
        side.push_back(pid);
      }
    }
    std::sort(side.begin(), side.end());
    if (side.empty() || side.size() >= config.n) continue;  // cuts nothing
    window.side = std::move(side);
    window.from = std::clamp<sim::Time>(window.from, 1, half);
    if (window.until != sim::kNever) {
      window.until = std::min(window.until, half);
      if (window.from >= window.until) continue;
    }
    partitions.push_back(std::move(window));
    if (partitions.size() >= 4) break;
  }
  config.partitions = std::move(partitions);

  config.exclusive_from = std::min(config.exclusive_from, half);
  config.member0_burst = std::min<std::uint32_t>(config.member0_burst, 6);
  config.grant_holdoff = std::min<sim::Time>(config.grant_holdoff, 50);
  if (config.never_exit_member >= static_cast<std::int32_t>(config.n)) {
    config.never_exit_member = -1;
  }

  switch (config.target) {
    case TargetKind::kBrokenSingleInstance:
      // The E9 regime: unfair lockout box, short mistake prefix. The
      // witness then outpaces the subject forever and keeps wrongfully
      // suspecting it — the defect the fuzzer must find.
      config.semantics = dining::BoxSemantics::kLockout;
      if (config.member0_burst < 2) config.member0_burst = 2;
      config.exclusive_from =
          std::clamp<sim::Time>(config.exclusive_from, 1, 2000);
      config.grant_holdoff = 0;
      config.never_exit_member = -1;
      break;
    case TargetKind::kBrokenForkBased: {
      // Section 3's counterexample: the never-exiting diner must be granted
      // DURING the mistake prefix (fork-based grants in the prefix hold no
      // lock), so the prefix has to outlast the first think+request round
      // trip by a wide margin.
      config.semantics = dining::BoxSemantics::kForkBased;
      const sim::Time min_prefix = 400 + 30 * effective_delay_max(config);
      config.exclusive_from =
          std::clamp<sim::Time>(config.exclusive_from, min_prefix, half);
      if (config.never_exit_member < 0 ||
          config.never_exit_member >= static_cast<std::int32_t>(config.n)) {
        config.never_exit_member = static_cast<std::int32_t>(config.n) - 1;
      }
      break;
    }
    default:
      break;
  }
  if (!is_broken_target(config.target) &&
      config.target != TargetKind::kScriptedDining) {
    config.never_exit_member = -1;
  }

  // Guarantee post-deadline runway: the oracles are only meaningful if the
  // run extends well past the convergence deadline.
  const sim::Time deadline = convergence_deadline(config);
  const sim::Time runway = 20000 + 400 * effective_delay_max(config);
  if (config.steps < deadline + runway) config.steps = deadline + runway;
  return config;
}

// --- ConfigRun: build once, advance incrementally, grade read-only --------

struct ConfigRun::Impl {
  FuzzConfig config;  ///< the (normalized) config the system was built from
  RunCapture* capture = nullptr;
  sim::Engine engine;
  std::vector<sim::ComponentHost*> hosts;
  std::vector<std::shared_ptr<detect::OracleEventuallyPerfect>> detectors;
  EngineInvariantObserver invariants;
  bool dining_target = false;
  std::unique_ptr<dining::DiningMonitor> monitor;
  detect::DetectorHistory history;
  std::vector<std::pair<sim::ProcessId, sim::ProcessId>> graded_pairs;

  // Keep the built components alive for the duration of the run.
  dining::BuiltInstance dining_instance;
  dining::BuiltScriptedBox scripted_box;
  std::vector<std::shared_ptr<dining::DinerClient>> clients;
  reduce::Extraction extraction;
  reduce::SingleInstancePair single_pair;
  std::unique_ptr<reduce::BoxFactory> factory;

  static sim::EngineConfig make_engine_config(const FuzzConfig& config,
                                              RunCapture* capture) {
    sim::EngineConfig engine_config{.seed = config.seed};
    if (capture != nullptr) {
      engine_config.trace_capacity = capture->trace_capacity;
      engine_config.trace_retain_kinds = capture->retain_kinds;
      engine_config.metrics = capture->metrics;
    }
    return engine_config;
  }

  Impl(const FuzzConfig& cfg, RunCapture* cap)
      : config(cfg),
        capture(cap),
        engine(make_engine_config(cfg, cap)),
        history(kExtractTag) {
    for (sim::ProcessId p = 0; p < config.n; ++p) {
      auto host = std::make_unique<sim::ComponentHost>();
      hosts.push_back(host.get());
      engine.add_process(std::move(host));
    }

    // Internal <>P modules (the box's own oracle): used by the real wait-
    // free algorithm targets; inert (but ticking) elsewhere, keeping the
    // builds uniform. Scripted mistake windows land here — they are
    // *internal* detector mistakes the legal targets must absorb.
    for (sim::ProcessId p = 0; p < config.n; ++p) {
      auto oracle = std::make_shared<detect::OracleEventuallyPerfect>(
          engine, p, config.n, config.detector_lag, config.mistakes,
          /*tag=*/0xFD);
      detectors.push_back(oracle);
      hosts[p]->add_component(oracle, {});
    }

    switch (config.delay) {
      case DelayKind::kFixed:
        engine.set_delay_model(
            std::make_unique<sim::FixedDelay>(config.delay_max));
        break;
      case DelayKind::kUniform:
        engine.set_delay_model(std::make_unique<sim::UniformDelay>(
            config.delay_min, config.delay_max));
        break;
      case DelayKind::kGeometric:
        engine.set_delay_model(std::make_unique<sim::GeometricDelay>(
            config.geo_p, config.delay_max));
        break;
      case DelayKind::kPartialSynchrony:
        engine.set_delay_model(std::make_unique<sim::PartialSynchronyDelay>(
            config.gst, config.delay_min, config.delay_max));
        break;
    }
    switch (config.scheduler) {
      case SchedulerKind::kRoundRobin:
        engine.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
        break;
      case SchedulerKind::kRandom:
        engine.set_scheduler(std::make_unique<sim::RandomScheduler>());
        break;
      case SchedulerKind::kWeighted:
        engine.set_scheduler(
            std::make_unique<sim::WeightedScheduler>(config.weights));
        break;
      case SchedulerKind::kPausing: {
        std::vector<sim::PausingScheduler::Pause> pauses;
        for (const PausePlan& plan : config.pauses) {
          pauses.push_back({plan.pid, plan.from, plan.until});
        }
        engine.set_scheduler(
            std::make_unique<sim::PausingScheduler>(std::move(pauses)));
        break;
      }
    }
    for (const CrashPlan& crash : config.crashes) {
      engine.schedule_crash(crash.pid, crash.at);
    }
    if (has_network_adversary(config)) {
      sim::NetConfig net;
      // The adversary's stream is derived from — but independent of — the
      // engine seed, so enabling it never perturbs the engine's own draws.
      net.seed = mc::detail::mix64(config.seed ^ 0x6e65742d61647621ULL);
      net.loss_rate = config.loss_rate;
      net.dup_rate = config.dup_rate;
      net.dup_spread = config.dup_spread;
      net.partitions = config.partitions;
      net.retransmit_every = config.retransmit_every;
      net.retransmit_max = config.retransmit_max;
      engine.set_network(std::move(net));
    }

    invariants.engine = &engine;
    engine.trace().subscribe_kinds(
        sim::kind_mask(sim::EventKind::kStep, sim::EventKind::kCrash),
        [this](const sim::Event& e) { invariants.on_event(e); });

    // --- target wiring ----------------------------------------------------
    dining_target = !is_extraction_target(config.target);

    const auto add_clients_for = [&](dining::DiningService& service,
                                     std::uint32_t member) {
      dining::ClientConfig client_config;
      client_config.never_exit =
          config.never_exit_member == static_cast<std::int32_t>(member);
      auto client =
          std::make_shared<dining::DinerClient>(service, client_config);
      hosts[member]->add_component(client, {});
      clients.push_back(std::move(client));
    };

    switch (config.target) {
      case TargetKind::kDining: {
        dining::DiningInstanceConfig instance_config;
        instance_config.port = kDiningPort;
        instance_config.tag = kDiningTag;
        for (sim::ProcessId p = 0; p < config.n; ++p) {
          instance_config.members.push_back(p);
        }
        instance_config.graph = make_graph(config.graph, config.n);
        std::vector<const detect::FailureDetector*> fds;
        for (const auto& d : detectors) fds.push_back(d.get());
        dining_instance =
            dining::build_dining_instance(hosts, instance_config, fds);
        for (std::uint32_t i = 0; i < config.n; ++i) {
          add_clients_for(*dining_instance.diners[i], i);
        }
        monitor =
            std::make_unique<dining::DiningMonitor>(engine, instance_config);
        dining::DiningMonitor::attach(engine, *monitor);
        break;
      }
      case TargetKind::kScriptedDining:
      case TargetKind::kBrokenForkBased: {
        dining::ScriptedBoxConfig box_config;
        box_config.port = kDiningPort;
        box_config.tag = kDiningTag;
        for (sim::ProcessId p = 0; p < config.n; ++p) {
          box_config.members.push_back(p);
        }
        box_config.exclusive_from = config.exclusive_from;
        box_config.semantics = config.semantics;
        box_config.member0_burst = config.member0_burst;
        box_config.grant_holdoff = config.grant_holdoff;
        scripted_box = dining::build_scripted_box(engine, hosts, box_config);
        for (std::uint32_t i = 0; i < config.n; ++i) {
          add_clients_for(*scripted_box.diners[i], i);
        }
        // The scripted manager serializes all post-prefix grants, so every
        // member conflicts with every other: grade against the clique.
        dining::DiningInstanceConfig monitor_config;
        monitor_config.port = kDiningPort;
        monitor_config.tag = kDiningTag;
        monitor_config.members = box_config.members;
        monitor_config.graph = graph::make_clique(config.n);
        monitor =
            std::make_unique<dining::DiningMonitor>(engine, monitor_config);
        dining::DiningMonitor::attach(engine, *monitor);
        break;
      }
      case TargetKind::kExtraction:
      case TargetKind::kScriptedExtraction: {
        if (config.target == TargetKind::kExtraction) {
          factory = std::make_unique<reduce::WaitFreeBoxFactory>(
              [this](sim::ProcessId p) { return detectors[p].get(); });
        } else {
          factory = std::make_unique<reduce::ScriptedBoxFactory>(
              engine, config.exclusive_from, config.semantics,
              config.member0_burst);
        }
        extraction = reduce::build_full_extraction(hosts, *factory,
                                                   reduce::ExtractionOptions{});
        engine.trace().subscribe_kinds(
            sim::kind_mask(sim::EventKind::kDetectorChange),
            [this](const sim::Event& e) { history.on_event(e); });
        for (const auto& pair : extraction.pairs) {
          history.set_initial(pair.watcher, pair.subject, true);
          graded_pairs.emplace_back(pair.watcher, pair.subject);
        }
        break;
      }
      case TargetKind::kBrokenSingleInstance: {
        factory = std::make_unique<reduce::ScriptedBoxFactory>(
            engine, config.exclusive_from, config.semantics,
            config.member0_burst);
        single_pair = reduce::build_single_instance_pair(
            *hosts[0], *hosts[1], 0, 1, *factory, /*base_port=*/2000,
            kDiningTag, kExtractTag);
        engine.trace().subscribe_kinds(
            sim::kind_mask(sim::EventKind::kDetectorChange),
            [this](const sim::Event& e) { history.on_event(e); });
        history.set_initial(0, 1, true);
        graded_pairs.emplace_back(0, 1);
        break;
      }
    }

    engine.init();
  }
};

ConfigRun::ConfigRun(const FuzzConfig& config, RunCapture* capture)
    : impl_(std::make_unique<Impl>(config, capture)) {}

ConfigRun::~ConfigRun() = default;

sim::Engine& ConfigRun::engine() { return impl_->engine; }

void ConfigRun::advance_to(sim::Time target) { impl_->engine.run_to(target); }

void ConfigRun::fill_capture() {
  if (impl_->capture == nullptr) return;
  impl_->capture->events = impl_->engine.trace().events();
  impl_->capture->truncated = impl_->engine.trace().truncated();
  impl_->capture->end_time = impl_->engine.now();
}

RunResult ConfigRun::grade(const FuzzConfig& graded) const {
  const Impl& im = *impl_;
  const sim::Engine& engine = im.engine;
  RunResult result;
  result.stats.deadline = convergence_deadline(graded);
  result.stats.wait_bound = wait_free_bound(graded);

  // --- stats --------------------------------------------------------------
  const sim::Time deadline = result.stats.deadline;
  result.stats.steps = engine.stats().steps;
  result.stats.messages_sent = engine.stats().messages_sent;
  result.stats.messages_delivered = engine.stats().messages_delivered;
  result.stats.messages_dropped = engine.stats().messages_dropped;
  result.stats.messages_lost = engine.stats().messages_lost;
  result.stats.messages_duplicated = engine.stats().messages_duplicated;
  result.stats.messages_retransmitted = engine.stats().messages_retransmitted;
  result.stats.in_transit = engine.in_transit_count();
  result.stats.crashes = engine.stats().crashes;
  if (im.monitor != nullptr) {
    result.stats.total_meals = im.monitor->total_meals();
    result.stats.exclusion_violations = im.monitor->exclusion_violations();
    result.stats.late_violations = im.monitor->violations_since(deadline);
    result.stats.last_violation = im.monitor->last_violation();
  }
  result.stats.detector_flips = im.history.flip_count();
  for (const auto& [watcher, subject] : im.graded_pairs) {
    if (engine.is_correct(watcher) && engine.is_correct(subject)) {
      result.stats.late_suspicion_episodes +=
          im.history.suspicion_episodes_since(watcher, subject, deadline);
    }
  }

  // --- oracles (severity order: safety, liveness, detector, engine) ------
  if (im.dining_target && im.monitor != nullptr) {
    if (result.stats.late_violations > 0) {
      result.failures.push_back(
          {"wx_safety", result.stats.last_violation,
           fmt("%a exclusion violation(s) at/after the convergence deadline "
               "t=%b (last at t=%c)",
               result.stats.late_violations, deadline,
               result.stats.last_violation)});
    }
    std::string wait_detail;
    if (!im.monitor->wait_free(engine.now(), result.stats.wait_bound,
                               &wait_detail)) {
      result.failures.push_back({"wait_free", engine.now(), wait_detail});
    }
    if (result.stats.total_meals == 0) {
      result.failures.push_back(
          {"activity", engine.now(),
           fmt("no diner completed a meal in %a steps", graded.steps)});
    }
  }
  if (is_extraction_target(graded.target)) {
    for (const auto& [watcher, subject] : im.graded_pairs) {
      if (!engine.is_correct(watcher) || !engine.is_correct(subject)) continue;
      const std::uint64_t late =
          im.history.suspicion_episodes_since(watcher, subject, deadline);
      const bool still = im.history.currently_suspects(watcher, subject);
      if (late > 0 || still) {
        std::ostringstream detail;
        detail << "watcher " << watcher << " vs correct subject " << subject
               << ": " << late << " suspicion episode(s) started at/after the "
               << "deadline t=" << deadline
               << (still ? "; still suspecting at end of run" : "");
        result.failures.push_back({"detector_accuracy",
                                   im.history.last_flip(watcher, subject),
                                   detail.str()});
        break;  // one witness pair is evidence enough
      }
    }
    const detect::Verdict completeness = im.history.strong_completeness(engine);
    if (!completeness.holds) {
      result.failures.push_back(
          {"detector_completeness", completeness.convergence,
           completeness.detail});
    }
  }
  if (im.invariants.time_regressed) {
    result.failures.push_back({"engine", im.invariants.regressed_at,
                               "trace time went backwards"});
  }
  if (im.invariants.dead_step) {
    result.failures.push_back(
        {"engine", im.invariants.dead_step_at,
         fmt("process %a stepped at t=%b, at/after its crash time",
             im.invariants.dead_step_pid, im.invariants.dead_step_at)});
  }
  // Conservation with the adversary on: each duplicate is an extra
  // in-flight copy, each loss is already inside `dropped` (messages_lost is
  // a subset tally), so the ledger reads sent + duplicated = out.
  const std::uint64_t accounted = result.stats.messages_delivered +
                                  result.stats.messages_dropped +
                                  result.stats.in_transit;
  if (result.stats.messages_sent + result.stats.messages_duplicated !=
      accounted) {
    result.failures.push_back(
        {"engine", engine.now(),
         fmt("message conservation broken: sent+duplicated=%a != delivered+"
             "dropped+in_transit=%b",
             result.stats.messages_sent + result.stats.messages_duplicated,
             accounted)});
  }

  result.signature = compute_signature(graded, result);
  return result;
}

static RunResult run_config_impl(const FuzzConfig& raw, RunCapture* capture) {
  const FuzzConfig config = normalize(raw);
  ConfigRun run(config, capture);
  run.advance_to(config.steps);
  run.fill_capture();
  return run.grade(config);
}

RunResult run_config(const FuzzConfig& raw) {
  return run_config_impl(raw, nullptr);
}

RunResult run_config(const FuzzConfig& raw, RunCapture& capture) {
  return run_config_impl(raw, &capture);
}

}  // namespace wfd::fuzz
