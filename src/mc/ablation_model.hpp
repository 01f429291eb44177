// Model checker for the E9 ablation: the single-instance extraction
// (one dining box, no hand-off) against an abstract wait-free exclusive
// box. The model's `analyze` hook searches for a lasso — a reachable cycle
// containing a wrongful-suspicion judgment in which the subject ALSO
// completes meals (so the cycle is a wait-free, exclusive, infinitely-
// often-serving run: a legal box behaviour) — i.e. a legal run where the
// witness wrongfully suspects the correct subject infinitely often. A
// found lasso is reported as a violation with the cycle as counterexample.
//
// Expected verdicts (tests + E11):
//   single-instance : lasso FOUND (verdict = violation) — not <>P;
//   (the two-instance construction's absence of such runs is established
//    by reduction_model.cpp's exhaustive Theorem-2 check).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/model.hpp"

namespace wfd::mc {

/// mc::Model implementation of the single-instance ablation; drive it
/// through mc::run_check (or the check_ablation convenience wrapper).
class AblationModel {
 public:
  struct State {
    std::uint32_t bits = 0;
  };

  std::vector<State> initial_states() const;
  /// emit(to, label) per enabled move. Defined in ablation_model.cpp, next
  /// to check_ablation, the one run_check that instantiates it.
  template <class Emit>
  void successors(const State& state, Emit&& emit) const;
  std::string check_state(const State& state) const;
  std::string describe(const State& state) const;
  /// Lasso search over the reached graph (see file header).
  std::string analyze(const ReachView<State>& graph) const;

  /// Model: 2+2 thread-state bits plus four flags.
  int code_bits() const { return 8; }
  /// SymmetricModel, trivially: witness and subject play distinct roles in
  /// the single-instance extraction, so the renaming group is the identity.
  State canonical(const State& state, Reduction) const { return state; }
};

CheckResult check_ablation(const CheckOptions& check = {});

}  // namespace wfd::mc
