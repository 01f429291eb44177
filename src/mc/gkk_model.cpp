#include "mc/gkk_model.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "mc/engine.hpp"

namespace wfd::mc {
namespace {

// State bits: q_requested, q_eating, heartbeat channel (0/1),
// w_trusts, w_wants_request, w_hungry.
enum : std::uint32_t {
  kQRequested = 1u << 0,
  kQEating = 1u << 1,
  kHbInFlight = 1u << 2,
  kWTrusts = 1u << 3,
  kWWants = 1u << 4,
  kWHungry = 1u << 5,
};

bool get(const GkkModel::State& st, std::uint32_t mask) {
  return (st.bits & mask) != 0;
}

GkkModel::State with(const GkkModel::State& st, std::uint32_t mask,
                     bool value) {
  GkkModel::State next = st;
  if (value) {
    next.bits |= mask;
  } else {
    next.bits &= ~mask;
  }
  return next;
}

}  // namespace

std::vector<GkkModel::State> GkkModel::initial_states() const {
  return {State{}};
}

template <class Emit>
void GkkModel::successors(const State& st, Emit&& emit) const {
  // Subject: send a heartbeat (bounded channel: one in flight).
  if (!get(st, kHbInFlight)) {
    emit(with(st, kHbInFlight, true), kLabelNone);
  }
  // Deliver the heartbeat: the witness trusts and wants to (re)enter.
  if (get(st, kHbInFlight)) {
    emit(with(with(with(st, kHbInFlight, false), kWTrusts, true), kWWants,
              true),
         kLabelNone);
  }
  // Subject requests permission (once).
  if (!get(st, kQRequested)) {
    emit(with(st, kQRequested, true), kLabelNone);
  }
  // Box grants the subject; it enters its critical section and never
  // exits. Under lockout semantics the grant pins the serial lock.
  if (get(st, kQRequested) && !get(st, kQEating)) {
    emit(with(st, kQEating, true), kLabelNone);
  }
  // Witness becomes hungry when it wants to.
  if (get(st, kWWants) && !get(st, kWHungry)) {
    emit(with(with(st, kWWants, false), kWHungry, true), kLabelNone);
  }
  // Box grants the witness — blocked, under lockout semantics, by the
  // eating subject. The whole GKK meal is one transition: enter, exit,
  // SUSPECT the subject.
  if (get(st, kWHungry)) {
    const bool blocked =
        semantics_ == GkkBoxSemantics::kLockout && get(st, kQEating);
    if (!blocked) {
      emit(with(with(st, kWHungry, false), kWTrusts, false),
           kLabelWrongfulSuspicion);
    }
  }
}

std::string GkkModel::check_state(const State&) const { return {}; }

std::string GkkModel::describe(const State& st) const {
  std::ostringstream out;
  out << (get(st, kQEating) ? "q:CS "
          : get(st, kQRequested) ? "q:req "
                                 : "q:idle ")
      << (get(st, kHbInFlight) ? "hb! " : "")
      << (get(st, kWTrusts) ? "w:trusts" : "w:suspects")
      << (get(st, kWHungry) ? ",hungry" : "")
      << (get(st, kWWants) ? ",wants" : "");
  return out.str();
}

std::string GkkModel::analyze(const ReachView<State>& graph) const {
  // Lasso search: a wrongful-suspicion edge u -> v, with q permanently in
  // its CS at u (legal infinite suffix), such that v can reach u again.
  // Nodes are addressed by CSR index; the visited set is a flat byte array.
  std::vector<std::uint8_t> visited(graph.node_count());
  std::vector<std::size_t> queue;
  const auto reaches = [&](std::size_t from, std::size_t target) {
    std::fill(visited.begin(), visited.end(), 0);
    queue.clear();
    queue.push_back(from);
    visited[from] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t cur = queue[head];
      if (cur == target) return true;
      for (std::size_t e = 0; e < graph.out_degree(cur); ++e) {
        const std::size_t next = graph.find(graph.edge_to(cur, e).bits);
        if (next != ReachView<State>::npos && !visited[next]) {
          visited[next] = 1;
          queue.push_back(next);
        }
      }
    }
    return false;
  };

  for (std::size_t node = 0; node < graph.node_count(); ++node) {
    const State st{static_cast<std::uint32_t>(graph.key(node))};
    if (!get(st, kQEating)) continue;  // suffix condition
    for (std::size_t e = 0; e < graph.out_degree(node); ++e) {
      if (!(graph.edge_label(node, e) & kLabelWrongfulSuspicion)) continue;
      const State to = graph.edge_to(node, e);
      const std::size_t entry = graph.find(to.bits);
      if (entry != ReachView<State>::npos && reaches(entry, node)) {
        return describe(st) + "  --[w eats & suspects correct q]-->  " +
               describe(to) + "  --...-->  (repeats forever)";
      }
    }
  }
  return {};
}

static_assert(AnalyzableModel<GkkModel>);

CheckResult check_gkk(GkkBoxSemantics semantics, const CheckOptions& check) {
  return run_check(GkkModel(semantics), check);
}

}  // namespace wfd::mc
