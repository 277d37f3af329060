// The inflationary semantics of probabilistic datalog (paper Sec 3.3):
//
//   Repeat forever {  in parallel, for each rule r:
//     newVals[r] := valuations of body(r) on the old state − oldVals[r];
//     oldVals[r] := oldVals[r] ∪ newVals[r];
//     R := R ∪ repair-key_X̄@P(π_{X̄,Ȳ,P}(newVals[r]));
//   }
//
// Rule bodies are monotone (atoms and comparisons, no negation) and the
// state only grows, so oldVals[r] is always body(r) on the previous state,
// and newVals[r] is exactly the set of valuations that use a tuple the last
// step added. The engine therefore keeps no oldVals: it evaluates the rules
// semi-naively. The first step evaluates every body in full; each later
// step takes, per rule, the union of its delta variants, each of which
// reads one IDB body atom from the last step's additions
// (docs/INTERNALS.md §9).
//
// Two evaluation modes share one compiled program and one step:
//  * sampling (one random computation path to a fixpoint) — the basis of the
//    PTIME absolute approximation of Thm 4.3;
//  * exact (depth-first search of the computation tree, Prop 4.4) —
//    worst-case exponential time but polynomial memory (a root-to-leaf path).
#ifndef PFQL_DATALOG_ENGINE_H_
#define PFQL_DATALOG_ENGINE_H_

#include <memory>
#include <vector>

#include "datalog/program.h"
#include "lang/interpretation.h"
#include "prob/distribution.h"
#include "ra/ra_expr.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace datalog {

/// A program compiled against one input's relation schemas (engine.cc).
/// Immutable, so a computation tree or a sampler reuses it throughout.
class CompiledProgram;

/// Sampling evaluator: runs one probabilistic computation path.
class InflationaryEngine {
 public:
  /// Compiles the program against the canonical evaluation instance built
  /// by Program::InitialInstance(edb), and starts a path there. Fails with
  /// InvalidArgument if a predicate starts with the reserved "__delta_".
  static StatusOr<InflationaryEngine> Make(Program program,
                                           const Instance& edb);

  /// Starts a new path at the compiled input's initial instance.
  void Restart();
  /// Starts a new path at the initial instance of `edb`, without
  /// recompiling. InvalidArgument unless `edb`'s relations have the schemas
  /// of the input Make compiled against (as every world of one c-table
  /// database has).
  Status Restart(const Instance& edb);

  /// The current state.
  Instance database() const;
  size_t steps_taken() const { return steps_; }

  /// Fires all rules once (in parallel, reading the old state), sampling
  /// every repair-key choice. Returns false iff no rule had new valuations
  /// (the fixpoint was already reached and the state did not change).
  StatusOr<bool> SampleStep(Rng* rng);

  /// Iterates SampleStep until fixpoint; fails with ResourceExhausted after
  /// max_steps (inflationary programs always terminate, so hitting the cap
  /// indicates an unreasonable budget, not divergence).
  StatusOr<Instance> RunToFixpoint(Rng* rng, size_t max_steps = 1 << 20);

 private:
  InflationaryEngine() = default;

  std::shared_ptr<const CompiledProgram> program_;
  Instance db_;  // the state plus the last step's additions
  size_t steps_ = 0;
};

/// Budget for the exact computation-tree traversal.
struct ExactInflationaryOptions {
  /// Maximum computation-tree nodes to visit before ResourceExhausted.
  size_t max_nodes = 1 << 22;
  /// Optional cooperative cancel/deadline token, polled at a stride over
  /// visited nodes. Non-owning; may be null.
  const CancellationToken* cancel = nullptr;
  ExactEvalOptions eval;
};

/// Exact probability that `event` holds at the fixpoint, by depth-first
/// search of the computation tree (Prop 4.4). Memory use is proportional to
/// the tree depth (polynomial), time may be exponential. A node whose
/// instance holds the event adds its probability and is not entered, and an
/// event on a relation no rule writes is decided at the root; `max_nodes`
/// and `nodes_visited` count the nodes searched, and a data error below a
/// settled node is not reported (docs/INTERNALS.md §9).
StatusOr<BigRational> ExactFixpointEventProbability(
    const Program& program, const Instance& edb, const QueryEvent& event,
    const ExactInflationaryOptions& options = {},
    size_t* nodes_visited = nullptr);

/// Exact distribution over fixpoint instances (merges equal fixpoints), by
/// a walk of the whole tree: the oracle of the settled search above.
/// Exponentially large in the worst case; bounded by options.max_nodes.
StatusOr<Distribution<Instance>> ExactFixpointDistribution(
    const Program& program, const Instance& edb,
    const ExactInflationaryOptions& options = {},
    size_t* nodes_visited = nullptr);

}  // namespace datalog
}  // namespace pfql

#endif  // PFQL_DATALOG_ENGINE_H_
