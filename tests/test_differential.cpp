// Differential testing between the two verification stacks: the explicit-
// state model checker (src/mc, which enumerates every interleaving of a
// small abstraction) and the discrete-event simulator driven through the
// fuzzer's oracles (src/sim + src/reduce, which samples concrete runs of
// the real implementation). Both encode the same paper: on matching regimes
// their verdicts must agree. Disagreement in either direction means the
// abstraction and the implementation have drifted apart — exactly the bug
// class a corrigendum paper teaches us to fear.
//
// The regimes themselves now live in tests/vectors/*.scenario.json (the
// scenario DSL), shared with wfd_fuzz --scenario and test_scenario_vectors;
// this suite loads those vectors, drives both stacks through the adapter
// layer, and keeps the pointed per-regime assertions (episode counts, crash
// counts, flip counts) that a bare verdict comparison would miss.
#include <gtest/gtest.h>

#include <string>

#include "fuzz/config.hpp"
#include "fuzz/oracles.hpp"
#include "mc/model.hpp"
#include "scenario/adapters.hpp"
#include "scenario/scenario.hpp"

namespace wfd {
namespace {

scenario::Scenario load_vector(const std::string& stem) {
  scenario::Scenario s;
  std::string error;
  const std::string path =
      std::string(WFD_VECTOR_DIR) + "/" + stem + ".scenario.json";
  EXPECT_TRUE(scenario::load_scenario_file(path, &s, &error))
      << path << ": " << error;
  return s;
}

/// Both stacks on one vector, via the adapters: the mc abstraction of the
/// scenario's regime must reach the same verdict as sampled concrete runs.
void expect_stacks_agree(const scenario::Scenario& s) {
  ASSERT_TRUE(s.supports_mc()) << s.name;
  const scenario::EngineOutcome model = scenario::run_scenario_mc(s);
  EXPECT_EQ(model.violation, s.expect_mc.violation)
      << s.name << ": " << model.detail;
  ASSERT_TRUE(s.supports_fuzz()) << s.name;
  const scenario::EngineOutcome runs = scenario::run_scenario_fuzz(s);
  EXPECT_EQ(runs.violation, s.expect_fuzz.violation)
      << s.name << ": " << runs.oracle << " — " << runs.detail;
  EXPECT_EQ(model.violation, runs.violation)
      << s.name << ": the stacks disagree — " << model.detail << " vs "
      << runs.detail;
}

TEST(Differential, ExclusiveRegimeBothStacksPass) {
  // Converged (kExclusive) regime: every lemma plus the Theorem 2 accuracy
  // step holds on all interleavings, and sampled runs show zero failures.
  const scenario::Scenario s = load_vector("v01_exclusive_clean");
  scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(scenario::to_mc_instance(s, &instance, &error)) << error;
  EXPECT_EQ(instance.options.mode, mc::BoxMode::kExclusive);
  EXPECT_TRUE(instance.options.check_accuracy);
  expect_stacks_agree(s);
}

TEST(Differential, MistakePrefixRegimeBothStacksPass) {
  // During the mistake prefix (kArbitrary) the safety lemmas hold on every
  // interleaving; accuracy is a suffix property, so the adapter drops it.
  const scenario::Scenario s = load_vector("v02_mistake_prefix");
  scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(scenario::to_mc_instance(s, &instance, &error)) << error;
  EXPECT_EQ(instance.options.mode, mc::BoxMode::kArbitrary);
  EXPECT_FALSE(instance.options.check_accuracy);
  expect_stacks_agree(s);
}

TEST(Differential, CrashRegimeBothStacksPass) {
  // With a nondeterministic subject crash, Theorem 1 (suspicion of a
  // drained crashed subject is permanent) holds on every interleaving; the
  // concrete run must actually crash exactly the planned process.
  const scenario::Scenario s = load_vector("v03_crash_regime");
  scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(scenario::to_mc_instance(s, &instance, &error)) << error;
  EXPECT_TRUE(instance.options.allow_crash);
  EXPECT_FALSE(instance.options.check_deadlock);
  expect_stacks_agree(s);

  const fuzz::RunResult run = fuzz::run_config(scenario::to_fuzz_config(s));
  EXPECT_TRUE(run.ok());
  EXPECT_EQ(run.stats.crashes, 1u);
}

TEST(Differential, SingleInstanceAblationBothStacksFail) {
  // The E9 ablation (one instance, no hand-off) has a lasso — a legal
  // wait-free exclusive run in which the witness wrongfully suspects the
  // correct subject infinitely often. The model's infinitely-often cycle
  // shows up as a recurring (not one-shot) episode count on the finite run.
  const scenario::Scenario s = load_vector("v04_broken_single_instance");
  expect_stacks_agree(s);

  const scenario::EngineOutcome model = scenario::run_scenario_mc(s);
  EXPECT_TRUE(model.violation);
  EXPECT_FALSE(model.detail.empty()) << "expected a counterexample";

  const fuzz::RunResult run = fuzz::run_config(scenario::to_fuzz_config(s));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.primary()->oracle, "detector_accuracy");
  EXPECT_GT(run.stats.late_suspicion_episodes, 1u)
      << "expected recurring (not one-shot) wrongful suspicion, matching the "
         "model's lasso";
}

TEST(Differential, ComposedPairsMatchSimulatedFullExtraction) {
  // Two independent ordered pairs composed in one mc state: the space is
  // the one-pair space squared, so the mc verdict is the one-pair verdict
  // by construction. The real N=3 extraction, whose pairs share processes,
  // must grade clean with a live detector.
  const scenario::Scenario s = load_vector("v06_composed_pairs");
  scenario::McInstance instance;
  std::string error;
  ASSERT_TRUE(scenario::to_mc_instance(s, &instance, &error)) << error;
  EXPECT_EQ(instance.options.pairs, 2u);
  expect_stacks_agree(s);

  const fuzz::RunResult run = fuzz::run_config(scenario::to_fuzz_config(s));
  EXPECT_TRUE(run.ok());
  EXPECT_GT(run.stats.detector_flips, 0u);
}

}  // namespace
}  // namespace wfd
