// Model checker for Section 3's counterexample: the GKK contention-manager
// extraction [8], abstracted, against a box with a never-exiting subject.
//
// The violation of eventual strong accuracy is a LIVENESS failure — "p
// suspects correct q infinitely often" — so reachability is not enough; the
// model's `analyze` hook searches the reached graph for a *lasso*: a
// reachable cycle that (a) contains a wrongful-suspicion transition and
// (b) runs entirely after the subject's permanent entry into its critical
// section (so the cycle is a legal infinite suffix of a run where the box
// owes nothing more to the subject). If such a cycle exists, some fair run
// suspects the correct subject forever — reported as a violation with the
// cycle as counterexample.
//
// Expected verdicts (machine-checked in tests and E11):
//   fork-based semantics ([12]-style): lasso FOUND (verdict = violation) —
//     GKK is broken;
//   lockout semantics: no lasso (verdict = ok) — GKK happens to work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mc/model.hpp"

namespace wfd::mc {

enum class GkkBoxSemantics : std::uint8_t {
  kLockout,    ///< the never-exiting eater holds the serial lock
  kForkBased,  ///< it entered on a scheduling mistake and holds nothing
};

/// mc::Model implementation of the abstract GKK extraction; drive it
/// through mc::run_check (or the check_gkk convenience wrapper).
class GkkModel {
 public:
  struct State {
    std::uint32_t bits = 0;
  };

  explicit GkkModel(GkkBoxSemantics semantics) : semantics_(semantics) {}

  std::vector<State> initial_states() const;
  /// emit(to, label) per enabled move. Defined in gkk_model.cpp, next to
  /// check_gkk, the one run_check that instantiates it.
  template <class Emit>
  void successors(const State& state, Emit&& emit) const;
  std::string check_state(const State& state) const;
  std::string describe(const State& state) const;
  /// Lasso search over the reached graph (see file header).
  std::string analyze(const ReachView<State>& graph) const;

  /// Model: six boolean flags (see gkk_model.cpp's enum).
  int code_bits() const { return 6; }
  /// SymmetricModel, trivially: the two processes play asymmetric roles
  /// (q is the never-exiting subject, w the suspecting witness), so the
  /// renaming group is the identity and every orbit is a singleton.
  State canonical(const State& state, Reduction) const { return state; }

 private:
  GkkBoxSemantics semantics_;
};

CheckResult check_gkk(GkkBoxSemantics semantics, const CheckOptions& check = {});

}  // namespace wfd::mc
