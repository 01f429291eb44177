#include "scenario/adapters.hpp"

#include <memory>
#include <sstream>

#include "mc/ablation_model.hpp"
#include "mc/hash.hpp"

namespace wfd::scenario {

fuzz::FuzzConfig to_fuzz_config(const Scenario& scenario) {
  return scenario.config;
}

mc::CheckResult McInstance::run() const {
  switch (family) {
    case McFamily::kAblation:
      return mc::check_ablation(check);
    case McFamily::kReduction:
      break;
  }
  return mc::check_reduction(options, check);
}

bool to_mc_instance(const Scenario& scenario, McInstance* out,
                    std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  const fuzz::FuzzConfig& config = scenario.config;
  if (fuzz::has_network_adversary(config)) {
    return fail("network adversaries have no model-checker abstraction "
                "(the model assumes the paper's reliable channels)");
  }
  *out = McInstance{};
  switch (config.target) {
    case fuzz::TargetKind::kBrokenSingleInstance:
      // The E9 ablation has its own dedicated model (lasso search); its
      // regime knobs are baked into the abstraction.
      out->family = McFamily::kAblation;
      return true;
    case fuzz::TargetKind::kExtraction:
    case fuzz::TargetKind::kScriptedExtraction: {
      out->family = McFamily::kReduction;
      // A nonzero mistake prefix (or scripted detector mistakes) puts the
      // run in the kArbitrary regime, where accuracy is a suffix property
      // the prefix model cannot check; a converged-from-the-start run
      // explores kExclusive with the Theorem 2 accuracy step on.
      const bool prefix = config.exclusive_from > 0 || !config.mistakes.empty();
      out->options.mode =
          prefix ? mc::BoxMode::kArbitrary : mc::BoxMode::kExclusive;
      out->options.check_accuracy = !prefix;
      out->options.allow_crash = !config.crashes.empty();
      // Deadlock-freedom only holds without crash nondeterminism (a frozen
      // pair has no successors by design).
      out->options.check_deadlock = !out->options.allow_crash;
      // The full extraction over n >= 3 runs many ordered pairs
      // concurrently; compose two in one state. The two-pair space is the
      // one-pair space squared, so its verdict is the one-pair verdict;
      // what the second pair adds is a check at the engine's scale.
      out->options.pairs =
          config.target == fuzz::TargetKind::kExtraction && config.n >= 3 ? 2
                                                                          : 1;
      return true;
    }
    case fuzz::TargetKind::kDining:
    case fuzz::TargetKind::kScriptedDining:
    case fuzz::TargetKind::kBrokenForkBased:
      return fail(std::string("target \"") + fuzz::to_string(config.target) +
                  "\" has no model-checker abstraction "
                  "(extraction targets only)");
  }
  return fail("unreachable target kind");
}

SimSetup to_sim_config(const Scenario& scenario) {
  SimSetup setup;
  setup.normalized = fuzz::normalize(scenario.config);
  setup.engine.seed = setup.normalized.seed;
  if (fuzz::has_network_adversary(setup.normalized)) {
    // Same derivation as the fuzz run path: adversary stream independent of
    // the engine stream, deterministic in the scenario seed.
    setup.network.seed =
        mc::detail::mix64(setup.normalized.seed ^ 0x6e65742d61647621ULL);
    setup.network.loss_rate = setup.normalized.loss_rate;
    setup.network.dup_rate = setup.normalized.dup_rate;
    setup.network.dup_spread = setup.normalized.dup_spread;
    setup.network.partitions = setup.normalized.partitions;
    setup.network.retransmit_every = setup.normalized.retransmit_every;
    setup.network.retransmit_max = setup.normalized.retransmit_max;
  }
  return setup;
}

void SimSetup::apply(sim::Engine& target) const {
  const fuzz::FuzzConfig& config = normalized;
  switch (config.delay) {
    case fuzz::DelayKind::kFixed:
      target.set_delay_model(
          std::make_unique<sim::FixedDelay>(config.delay_max));
      break;
    case fuzz::DelayKind::kUniform:
      target.set_delay_model(std::make_unique<sim::UniformDelay>(
          config.delay_min, config.delay_max));
      break;
    case fuzz::DelayKind::kGeometric:
      target.set_delay_model(std::make_unique<sim::GeometricDelay>(
          config.geo_p, config.delay_max));
      break;
    case fuzz::DelayKind::kPartialSynchrony:
      target.set_delay_model(std::make_unique<sim::PartialSynchronyDelay>(
          config.gst, config.delay_min, config.delay_max));
      break;
  }
  switch (config.scheduler) {
    case fuzz::SchedulerKind::kRoundRobin:
      target.set_scheduler(std::make_unique<sim::RoundRobinScheduler>());
      break;
    case fuzz::SchedulerKind::kRandom:
      target.set_scheduler(std::make_unique<sim::RandomScheduler>());
      break;
    case fuzz::SchedulerKind::kWeighted:
      target.set_scheduler(
          std::make_unique<sim::WeightedScheduler>(config.weights));
      break;
    case fuzz::SchedulerKind::kPausing: {
      std::vector<sim::PausingScheduler::Pause> pauses;
      for (const fuzz::PausePlan& plan : config.pauses) {
        pauses.push_back({plan.pid, plan.from, plan.until});
      }
      target.set_scheduler(
          std::make_unique<sim::PausingScheduler>(std::move(pauses)));
      break;
    }
  }
  for (const fuzz::CrashPlan& crash : config.crashes) {
    target.schedule_crash(crash.pid, crash.at);
  }
  if (network.enabled()) target.set_network(network);
}

namespace {

EngineOutcome outcome_of_run(const fuzz::RunResult& result) {
  EngineOutcome outcome;
  if (const fuzz::OracleFailure* failure = result.primary()) {
    outcome.violation = true;
    outcome.oracle = failure->oracle;
    outcome.detail = failure->detail;
  }
  return outcome;
}

}  // namespace

EngineOutcome run_scenario_sim(const Scenario& scenario) {
  return outcome_of_run(fuzz::run_config(to_fuzz_config(scenario)));
}

EngineOutcome run_scenario_mc(const Scenario& scenario,
                              const mc::CheckOptions& check) {
  McInstance instance;
  std::string error;
  EngineOutcome outcome;
  if (!to_mc_instance(scenario, &instance, &error)) {
    // An unsupported regime reaching here means the scenario claimed mc
    // support it does not have; surface it as a (mismatching) violation.
    outcome.violation = true;
    outcome.detail = "mc adapter: " + error;
    return outcome;
  }
  instance.check = check;
  const mc::CheckResult result = instance.run();
  if (!result.ok()) {
    outcome.violation = true;
    outcome.detail = result.verdict == mc::Verdict::kBudgetExceeded
                         ? "state budget exceeded before coverage"
                         : result.counterexample;
  }
  return outcome;
}

std::vector<std::uint64_t> sweep_seeds(const Scenario& scenario) {
  if (!scenario.expect_fuzz.seeds.empty()) return scenario.expect_fuzz.seeds;
  return {scenario.config.seed, scenario.config.seed + 1,
          scenario.config.seed + 2};
}

EngineOutcome run_scenario_fuzz(const Scenario& scenario) {
  EngineOutcome outcome;
  std::size_t failing = 0;
  for (const std::uint64_t seed : sweep_seeds(scenario)) {
    fuzz::FuzzConfig config = to_fuzz_config(scenario);
    config.seed = seed;
    const fuzz::RunResult result = fuzz::run_config(config);
    if (const fuzz::OracleFailure* failure = result.primary()) {
      ++failing;
      if (!outcome.violation) {
        outcome.violation = true;
        outcome.oracle = failure->oracle;
        std::ostringstream detail;
        detail << "seed " << seed << ": " << failure->detail;
        outcome.detail = detail.str();
      }
    }
  }
  if (outcome.violation) {
    outcome.detail += " (" + std::to_string(failing) + "/" +
                      std::to_string(sweep_seeds(scenario).size()) +
                      " seeds failing)";
  }
  return outcome;
}

namespace {

bool matches(const Expectation& expect, const EngineOutcome& outcome,
             const char* engine, bool check_oracle, std::string* why) {
  const auto mismatch = [&](const std::string& what) {
    if (why != nullptr) {
      *why = std::string(engine) + ": " + what +
             (outcome.detail.empty() ? "" : " — " + outcome.detail);
    }
    return false;
  };
  if (expect.violation != outcome.violation) {
    return mismatch(std::string("expected ") +
                    (expect.violation ? "violation" : "clean") + ", got " +
                    (outcome.violation ? "violation" : "clean"));
  }
  if (check_oracle && expect.violation && !expect.oracle.empty() &&
      expect.oracle != outcome.oracle) {
    return mismatch("expected oracle \"" + expect.oracle + "\", got \"" +
                    outcome.oracle + "\"");
  }
  return true;
}

}  // namespace

bool check_expectations(const Scenario& scenario, std::string* why,
                        const mc::CheckOptions& mc_check) {
  if (scenario.supports_sim()) {
    if (!matches(scenario.expect_sim, run_scenario_sim(scenario), "sim",
                 /*check_oracle=*/true, why)) {
      return false;
    }
  }
  if (scenario.supports_mc()) {
    if (!matches(scenario.expect_mc, run_scenario_mc(scenario, mc_check), "mc",
                 /*check_oracle=*/false, why)) {
      return false;
    }
  }
  if (scenario.supports_fuzz()) {
    if (!matches(scenario.expect_fuzz, run_scenario_fuzz(scenario), "fuzz",
                 /*check_oracle=*/true, why)) {
      return false;
    }
  }
  return true;
}

}  // namespace wfd::scenario
