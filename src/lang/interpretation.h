// Probabilistic first-order interpretations (paper Def 3.1): one RA +
// repair-key query per schema relation. Applying an interpretation to a
// database instance yields a probabilistic database whose worlds combine the
// per-relation query results independently (product of probabilities).
#ifndef PFQL_LANG_INTERPRETATION_H_
#define PFQL_LANG_INTERPRETATION_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "prob/distribution.h"
#include "ra/plan.h"
#include "ra/ra_expr.h"
#include "relational/instance.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {

class CompiledKernel;

/// A transition kernel Q = (Q_1, ..., Q_k): for each relation name a query
/// computing that relation's next state. Relations with no assigned query
/// keep their current value (the paper's "E := E  % unchanged").
class Interpretation {
 public:
  Interpretation() = default;

  /// Sets the query producing relation `name`'s next state.
  void Define(const std::string& name, RaExpr::Ptr query) {
    queries_[name] = std::move(query);
  }

  const std::map<std::string, RaExpr::Ptr>& queries() const {
    return queries_;
  }
  bool Defines(const std::string& name) const {
    return queries_.count(name) > 0;
  }

  /// True iff no query contains repair-key.
  bool IsDeterministic() const;

  /// Compiles every query against the schemas of `initial` (ra/plan.h),
  /// once, for a walk that starts there. Fails with the compiler's errors,
  /// and with InvalidArgument if a query's output schema differs from its
  /// relation's schema in `initial`: plans read columns by position, so a
  /// relation must keep its schema from step to step.
  StatusOr<std::shared_ptr<const CompiledKernel>> Compile(
      const Instance& initial) const;

  /// Returns a kernel computing R := R ∪ Q_R for each defined query — the
  /// canonical way to build an inflationary query (Def 3.4).
  Interpretation Inflationary() const;

  /// Dynamic inflationarity check: does every successor of `instance`
  /// contain it? (Def 3.4 quantifies over all instances; this tests one.)
  StatusOr<bool> IsInflationaryOn(const Instance& instance,
                                  const ExactEvalOptions& options = {}) const;

  std::string ToString() const;

 private:
  std::map<std::string, RaExpr::Ptr> queries_;
};

/// A kernel compiled by Interpretation::Compile: one plan per defined
/// relation, in name order. Immutable, so the shards of one request and the
/// workers of one state-space build share it. Every query reads the old
/// instance (parallel firing); relations with no query carry over.
class CompiledKernel {
 public:
  /// Samples one successor in place: `*state` becomes the successor, and
  /// relations no query defines are not copied. The queries draw in name
  /// order. On error `*state` is unchanged.
  Status Step(Instance* state, Rng* rng) const;

  /// Exact one-step semantics: the distribution over successor instances.
  StatusOr<Distribution<Instance>> Exact(
      const Instance& instance, const ExactEvalOptions& options = {}) const;

 private:
  friend class Interpretation;

  std::vector<std::pair<std::string, RaPlan>> plans_;  // by name
};

/// A query event (Def 3.2): the Boolean test "tuple ∈ relation".
struct QueryEvent {
  std::string relation;
  Tuple tuple;

  /// True iff the event holds in `instance` (absent relation = false).
  bool Holds(const Instance& instance) const {
    const Relation* rel = instance.Find(relation);
    return rel != nullptr && rel->Contains(tuple);
  }

  std::string ToString() const {
    return tuple.ToString() + " in " + relation;
  }
};

/// A noninflationary ("forever") query: kernel + event (Def 3.2).
struct ForeverQuery {
  Interpretation kernel;
  QueryEvent event;
};

/// An inflationary query (Def 3.4). Use Interpretation::Inflationary() to
/// guarantee the containment property by construction.
struct InflationaryQuery {
  Interpretation kernel;
  QueryEvent event;
};

}  // namespace pfql

#endif  // PFQL_LANG_INTERPRETATION_H_
