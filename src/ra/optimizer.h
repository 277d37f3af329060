// A rewrite-based optimizer for RA + repair-key expressions — the "generic
// optimization techniques for query evaluation" the paper lists as future
// work. All rewrites preserve the exact possible-worlds semantics
// (property-tested against the reference evaluator in
// tests/ra/optimizer_test.cc).
//
// Structural rules (always safe):
//   * σ_true(e)                  -> e
//   * σ_p2(σ_p1(e))              -> σ_{p2 ∧ p1}(e)
//   * π_c2(π_c1(e))              -> π_c2(e)
//   * ρ_m2(ρ_m1(e))              -> ρ_{m2 ∘ m1}(e);  ρ_∅(e) -> e
//   * e ∪ ∅ -> e,  ∅ ∪ e -> e,  e − ∅ -> e,  ∅ − e -> ∅,  ∅ ∩ e / e ∩ ∅ -> ∅
//   * e × {()} -> e,  {()} × e -> e   (0-ary singleton is the product unit)
//   * e ⋈ ∅ / ∅ ⋈ e / e × ∅ / ∅ × e -> ∅ when the result schema is known
//   * repair-key(const r) with all-singleton groups -> const r
//     (the choice is deterministic)
//
// Schema-aware rule (applied when base-relation schemas are supplied):
//   * σ_p(a ⋈ b) -> σ_p(a) ⋈ b when p only references columns of a
//     (and symmetrically), including through products.
#ifndef PFQL_RA_OPTIMIZER_H_
#define PFQL_RA_OPTIMIZER_H_

#include <map>

#include "ra/plan.h"
#include "ra/ra_expr.h"
#include "util/status.h"

namespace pfql {

/// Structural optimization only (no schema knowledge required).
RaExpr::Ptr Optimize(const RaExpr::Ptr& expr);

/// Structural + schema-aware optimization. `schemas` maps base relation
/// names to their schemas (as in InferSchema); expressions referencing
/// unknown relations are still optimized structurally.
RaExpr::Ptr Optimize(const RaExpr::Ptr& expr,
                     const std::map<std::string, Schema>& schemas);

/// Number of nodes in the expression tree (for before/after comparisons).
size_t ExprSize(const RaExpr::Ptr& expr);

}  // namespace pfql

#endif  // PFQL_RA_OPTIMIZER_H_
