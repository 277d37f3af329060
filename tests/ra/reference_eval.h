// The tree-walking evaluator of RA + repair-key expressions, kept as the
// test oracle for compiled plans (ra/plan.h): it resolves every column by
// name on every call and rebuilds every intermediate relation, exactly as
// the by-name semantics of Sec 2.2 reads, and groups repair-key through its
// own std::map rather than prob/repair_key.cc. Production code evaluates
// through RaPlan.
#ifndef PFQL_TESTS_RA_REFERENCE_EVAL_H_
#define PFQL_TESTS_RA_REFERENCE_EVAL_H_

#include <map>
#include <string>

#include "prob/distribution.h"
#include "ra/ra_expr.h"
#include "relational/instance.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {
namespace reference {

/// Exact possible-worlds evaluation of `expr` against `instance`.
StatusOr<Distribution<Relation>> EvalExact(
    const RaExpr::Ptr& expr, const Instance& instance,
    const ExactEvalOptions& options = {});

/// Samples one possible world of `expr` on `instance` (each repair-key node
/// draws one repair).
StatusOr<Relation> EvalSample(const RaExpr::Ptr& expr,
                              const Instance& instance, Rng* rng);

/// The by-name schema rules: the output schema, given the schemas of the
/// base relations, or the first invalid column reference.
StatusOr<Schema> InferSchema(const RaExpr::Ptr& expr,
                             const std::map<std::string, Schema>& schemas);

}  // namespace reference
}  // namespace pfql

#endif  // PFQL_TESTS_RA_REFERENCE_EVAL_H_
