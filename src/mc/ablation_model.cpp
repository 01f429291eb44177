#include "mc/ablation_model.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "mc/engine.hpp"

namespace wfd::mc {
namespace {

// State: witness {idle,hungry,eating}, subject {idle,hungry,eating},
// haveping, ping_enabled, ping/ack channel occupancy (<=1 each).
enum : std::uint32_t {
  kWShift = 0,  // 2 bits
  kSShift = 2,  // 2 bits
  kHavePing = 1u << 4,
  kPingEnabled = 1u << 5,
  kPingChan = 1u << 6,
  kAckChan = 1u << 7,
};
enum : std::uint32_t { kIdle = 0, kHungry = 1, kEating = 2 };

using AState = AblationModel::State;

std::uint32_t w(const AState& st) { return (st.bits >> kWShift) & 3; }
std::uint32_t s(const AState& st) { return (st.bits >> kSShift) & 3; }

AState with_w(const AState& st, std::uint32_t v) {
  return {(st.bits & ~(3u << kWShift)) | (v << kWShift)};
}
AState with_s(const AState& st, std::uint32_t v) {
  return {(st.bits & ~(3u << kSShift)) | (v << kSShift)};
}
bool get(const AState& st, std::uint32_t mask) {
  return (st.bits & mask) != 0;
}
AState with(const AState& st, std::uint32_t mask, bool value) {
  AState n = st;
  if (value) {
    n.bits |= mask;
  } else {
    n.bits &= ~mask;
  }
  return n;
}

const char* tstate(std::uint32_t v) {
  switch (v) {
    case kIdle: return "idle";
    case kHungry: return "hungry";
    case kEating: return "eating";
  }
  return "?";
}

}  // namespace

std::vector<AState> AblationModel::initial_states() const {
  return {with(AState{}, kPingEnabled, true)};
}

template <class Emit>
void AblationModel::successors(const State& st, Emit&& emit) const {
  // Witness requests.
  if (w(st) == kIdle) {
    emit(with_w(st, kHungry), kLabelNone);
  }
  // Box grants the witness (exclusive: not while the subject eats).
  if (w(st) == kHungry && s(st) != kEating) {
    emit(with_w(st, kEating), kLabelNone);
  }
  // Witness judges and exits (the whole A_x action).
  if (w(st) == kEating) {
    emit(with(with_w(st, kIdle), kHavePing, false),
         get(st, kHavePing)
             ? static_cast<std::uint8_t>(kLabelNone)
             : static_cast<std::uint8_t>(kLabelWrongfulSuspicion));
  }
  // Subject requests.
  if (s(st) == kIdle) {
    emit(with_s(st, kHungry), kLabelNone);
  }
  // Box grants the subject.
  if (s(st) == kHungry && w(st) != kEating) {
    emit(with_s(st, kEating), kLabelNone);
  }
  // Subject pings (once per meal).
  if (s(st) == kEating && get(st, kPingEnabled) && !get(st, kPingChan)) {
    emit(with(with(st, kPingEnabled, false), kPingChan, true), kLabelNone);
  }
  // Ping delivery: witness remembers and acks (atomic, as in Alg. 1).
  if (get(st, kPingChan) && !get(st, kAckChan)) {
    emit(with(with(with(st, kPingChan, false), kHavePing, true), kAckChan,
              true),
         kLabelNone);
  }
  // Ack delivery: the subject's meal completes.
  if (get(st, kAckChan) && s(st) == kEating) {
    emit(with(with_s(with(st, kAckChan, false), kIdle), kPingEnabled, true),
         kLabelSubjectMeal);
  }
}

std::string AblationModel::check_state(const State&) const { return {}; }

std::string AblationModel::describe(const State& st) const {
  std::ostringstream out;
  out << "w:" << tstate(w(st)) << " s:" << tstate(s(st))
      << (get(st, kHavePing) ? " haveping" : "")
      << (get(st, kPingChan) ? " ping!" : "")
      << (get(st, kAckChan) ? " ack!" : "");
  return out.str();
}

std::string AblationModel::analyze(const ReachView<State>& graph) const {
  // For each wrongful-suspicion edge u -> v: find a path v ~> u that
  // includes at least one subject meal (product construction over a
  // "meal seen" bit), making the cycle a wait-free run for the subject.
  // Product nodes are (CSR index, meal bit), visited as a flat byte array.
  std::vector<std::uint8_t> visited(2 * graph.node_count());
  std::vector<std::size_t> queue;  // node * 2 + meal_seen
  for (std::size_t node = 0; node < graph.node_count(); ++node) {
    for (std::size_t s = 0; s < graph.out_degree(node); ++s) {
      if (!(graph.edge_label(node, s) & kLabelWrongfulSuspicion)) continue;
      const State suspicion_to = graph.edge_to(node, s);
      const std::size_t entry = graph.find(suspicion_to.bits);
      if (entry == ReachView<State>::npos) continue;
      std::fill(visited.begin(), visited.end(), 0);
      queue.clear();
      queue.push_back(entry * 2);
      visited[entry * 2] = 1;
      bool found = false;
      for (std::size_t head = 0; head < queue.size() && !found; ++head) {
        const std::size_t cur = queue[head] / 2;
        const bool meal_seen = (queue[head] & 1) != 0;
        if (cur == node && meal_seen) {
          found = true;
          break;
        }
        for (std::size_t e = 0; e < graph.out_degree(cur); ++e) {
          const std::size_t next = graph.find(graph.edge_to(cur, e).bits);
          if (next == ReachView<State>::npos) continue;
          const bool next_meal =
              meal_seen || (graph.edge_label(cur, e) & kLabelSubjectMeal) != 0;
          const std::size_t product = next * 2 + (next_meal ? 1 : 0);
          if (!visited[product]) {
            visited[product] = 1;
            queue.push_back(product);
          }
        }
      }
      if (found) {
        return describe(State{static_cast<std::uint32_t>(graph.key(node))}) +
               "  --[witness wrongfully suspects]-->  " +
               describe(suspicion_to) +
               "  --...(subject eats too)...-->  (repeats forever)";
      }
    }
  }
  return {};
}

static_assert(AnalyzableModel<AblationModel>);

CheckResult check_ablation(const CheckOptions& check) {
  return run_check(AblationModel{}, check);
}

}  // namespace wfd::mc
