// Deterministic relational-algebra operator kernels over canonical
// Relations, evaluated by column name: the building blocks of the reference
// evaluator (reference_eval.h), which checks compiled plans (ra/plan.h)
// against Sec 2.2's by-name semantics.
#ifndef PFQL_TESTS_RA_ALGEBRA_H_
#define PFQL_TESTS_RA_ALGEBRA_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relational/expr.h"
#include "relational/relation.h"
#include "util/status.h"

namespace pfql {

/// σ_pred(rel): rows satisfying the predicate.
StatusOr<Relation> Select(const Relation& rel,
                          const std::shared_ptr<Predicate>& pred);

/// π_cols(rel): duplicate-eliminating projection onto named columns
/// (columns may repeat and reorder).
StatusOr<Relation> Project(const Relation& rel,
                           const std::vector<std::string>& cols);

/// ρ(rel): renames columns per the old→new map; unmapped columns keep their
/// names. Errors if a source column is missing or the result has duplicates.
StatusOr<Relation> RenameColumns(const Relation& rel,
                                 const std::map<std::string, std::string>& m);

/// a ⋈ b: natural join on the common column names (hash join). With no
/// common columns this degenerates to the product — but prefer Product for
/// that case to make intent explicit.
StatusOr<Relation> NaturalJoin(const Relation& a, const Relation& b);

/// a × b: product; schemas must be disjoint.
StatusOr<Relation> Product(const Relation& a, const Relation& b);

/// a ∪ b / a − b / a ∩ b; the operands' arities must match, and the result
/// keeps a's schema.
StatusOr<Relation> Union(const Relation& a, const Relation& b);
StatusOr<Relation> Difference(const Relation& a, const Relation& b);
StatusOr<Relation> Intersect(const Relation& a, const Relation& b);

/// Extends each row with a new column holding the expression's value (a
/// column's or a constant).
StatusOr<Relation> Extend(const Relation& rel, const std::string& new_column,
                          const std::shared_ptr<ScalarExpr>& expr);

/// Builds a single-column relation from values (handy for constants like
/// ρ_P({1}) in the paper's PageRank example).
Relation SingletonColumn(const std::string& column,
                         const std::vector<Value>& values);

}  // namespace pfql

#endif  // PFQL_TESTS_RA_ALGEBRA_H_
