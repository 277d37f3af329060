// Builds the Markov chain over database instances induced by a transition
// kernel and an initial instance (paper Sec 3.1 / Prop 5.4): states are the
// instances reachable from the start, transition probabilities are the exact
// possible-world probabilities of one kernel application.
#ifndef PFQL_MARKOV_STATE_SPACE_H_
#define PFQL_MARKOV_STATE_SPACE_H_

#include <vector>

#include "lang/interpretation.h"
#include "markov/markov_chain.h"
#include "relational/instance.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace pfql {

/// The explored state space: states[0] is the initial instance.
struct StateSpace {
  std::vector<Instance> states;
  MarkovChain chain;

  /// Indicator vector for an event over the explored states.
  std::vector<bool> EventStates(const QueryEvent& event) const;
};

/// Exploration limits: state spaces are exponential in the database size in
/// the worst case (that is Prop 5.4's EXPTIME bound), so callers cap them.
struct StateSpaceOptions {
  size_t max_states = 1 << 14;
  /// Worker threads for expanding a BFS wave. Workers intern successor
  /// instances concurrently (markov/concurrent_interner.h) and the merge
  /// pass numbers them in frontier order, so states, edges, and errors are
  /// identical for any value.
  size_t threads = 1;
  /// Optional cooperative cancel/deadline token, polled once per expanded
  /// state during the merge pass, and by the solves that eval runs on the
  /// built chain (ExactForever, MeasureMixingTime*). Non-owning; may be
  /// null.
  const CancellationToken* cancel = nullptr;
  ExactEvalOptions eval;
};

/// BFS exploration from `initial` under kernel `q`. Fails with
/// ResourceExhausted when max_states is exceeded (the message reports how
/// many states were explored, so callers can tune the budget), and with
/// Cancelled/DeadlineExceeded when `options.cancel` fires.
StatusOr<StateSpace> BuildStateSpace(const Interpretation& q,
                                     const Instance& initial,
                                     const StateSpaceOptions& options = {});

}  // namespace pfql

#endif  // PFQL_MARKOV_STATE_SPACE_H_
