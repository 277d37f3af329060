// Compiled RA + repair-key plans. RaPlan::Compile resolves an expression
// against the schemas of the instance it will run on, once: every column
// reference becomes a position, renames and identity projections compile
// away, and projections over extends by a column or a constant fuse into
// one positional map. At run time a plan builds and validates no Schema,
// looks up no column by name (select predicates and arithmetic extends
// aside), and reads base relations in place.
//
// Every node yields the same set as the by-name semantics of Sec 2.2, in
// canonical form wherever it is read as a set, and repair-key draws in the
// same order (left child before right child, groups in key order, members
// in row order), so sampled worlds match draw for draw and exact
// distributions match outcome for outcome (docs/INTERNALS.md §11).
#ifndef PFQL_RA_PLAN_H_
#define PFQL_RA_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "prob/distribution.h"
#include "ra/ra_expr.h"
#include "relational/instance.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {

/// An expression compiled against fixed base-relation schemas. Immutable
/// and cheap to copy (the compiled nodes are shared), so one plan serves
/// concurrent evaluations.
class RaPlan {
 public:
  /// An empty plan, to be assigned a compiled one before use.
  RaPlan() = default;

  /// Compiles `expr` against `schemas` (relation name to schema). Fails on
  /// an unknown relation or column (NotFound), a duplicate output column or
  /// a product of overlapping schemas (InvalidArgument), an extend onto an
  /// existing column (AlreadyExists), or set operands of different arities
  /// (TypeError).
  static StatusOr<RaPlan> Compile(const RaExpr::Ptr& expr,
                                  const std::map<std::string, Schema>& schemas);

  /// The output schema.
  const Schema& schema() const { return schema_; }

  /// One possible world: every repair-key draws one repair from `rng` (which
  /// may be null for a deterministic plan). A base relation that is missing
  /// from `instance`, or whose schema differs from the one compiled
  /// against, is an error.
  StatusOr<Relation> Sample(const Instance& instance, Rng* rng) const;

  /// Sample's rows (sorted, distinct), without the Relation wrapper.
  StatusOr<std::vector<Tuple>> SampleRows(const Instance& instance,
                                          Rng* rng) const;

  /// The exact distribution over output relations, with outcomes sorted
  /// and distinct; ResourceExhausted once a node tracks more than
  /// options.max_worlds worlds.
  StatusOr<Distribution<Relation>> Exact(
      const Instance& instance, const ExactEvalOptions& options = {}) const;

  struct Node;

 private:
  std::shared_ptr<const std::vector<Node>> nodes_;
  int root_ = -1;
  Schema schema_;
};

/// The output schema of `expr` over base relations with `schemas`: the
/// schema RaPlan::Compile gives it, with Compile's errors.
StatusOr<Schema> InferSchema(const RaExpr::Ptr& expr,
                             const std::map<std::string, Schema>& schemas);

}  // namespace pfql

#endif  // PFQL_RA_PLAN_H_
