// Compilation of rule bodies to relational algebra. A rule body (a
// conjunction of relational atoms plus builtin comparisons) compiles to an
// RaExpr producing the rule's *valuation relation*: one column per distinct
// body variable, one row per satisfying assignment. Shared by the
// inflationary engine (Sec 3.3), the datalog→interpretation translators and
// the Sec 5.1 partition.
#ifndef PFQL_DATALOG_BODY_EVAL_H_
#define PFQL_DATALOG_BODY_EVAL_H_

#include <map>
#include <optional>
#include <vector>

#include "datalog/ast.h"
#include "ra/ra_expr.h"
#include "util/status.h"

namespace pfql {
namespace datalog {

/// Compiles `rule`'s body to an RaExpr whose output schema is exactly
/// rule.BodyVariables() (in first-occurrence order). `schemas` must map
/// every body predicate to its schema in the evaluation instance. A rule
/// with an empty body compiles to the constant 0-ary relation containing
/// the empty tuple (the paper's "single empty valuation").
StatusOr<RaExpr::Ptr> CompileBody(const Rule& rule,
                                  const std::map<std::string, Schema>& schemas);

/// A term list (a rule head, a body atom, a repair-key key) resolved, once,
/// against the schema of its valuation rows (variable names as columns):
/// each term is a row position or a constant.
class HeadLayout {
 public:
  /// NotFound if a variable is not a column of `binding_schema`.
  static StatusOr<HeadLayout> Resolve(const std::vector<Term>& terms,
                                      const Schema& binding_schema);

  /// The terms' tuple for one valuation row.
  Tuple Build(const Tuple& binding) const;

 private:
  struct Slot {
    size_t position = 0;
    std::optional<Value> constant;
  };
  std::vector<Slot> slots_;
};

}  // namespace datalog
}  // namespace pfql

#endif  // PFQL_DATALOG_BODY_EVAL_H_
