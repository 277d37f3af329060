#include "datalog/translate.h"

#include "datalog/body_eval.h"
#include "lang/ctable_macro.h"
#include "ra/optimizer.h"

namespace pfql {
namespace datalog {

namespace {

std::string OldValsName(size_t rule_index) {
  return "__old" + std::to_string(rule_index);
}

// Wraps a valuation expression (schema: head vars [+ weight var]) into the
// head-producing expression: optional repair-key, then head tuple assembly
// via Extend/Project onto the canonical head schema a0..ak-1.
StatusOr<RaExpr::Ptr> BuildHeadExpr(const Rule& rule, RaExpr::Ptr valuations,
                                    const Schema& head_schema) {
  RaExpr::Ptr expr = std::move(valuations);
  if (rule.head.IsProbabilistic()) {
    RepairKeySpec spec;
    spec.key_columns = rule.KeyVariables();
    spec.weight_column = rule.head.weight_var;
    expr = RaExpr::RepairKey(std::move(expr), std::move(spec));
  }
  // Assemble head columns. Canonical names "a0".. cannot collide with
  // datalog variables (variables start upper-case).
  for (size_t i = 0; i < rule.head.terms.size(); ++i) {
    const Term& t = rule.head.terms[i];
    std::shared_ptr<ScalarExpr> value =
        t.IsVar() ? ScalarExpr::Column(t.var) : ScalarExpr::Const(t.value);
    expr = RaExpr::Extend(std::move(expr), head_schema.column(i),
                          std::move(value));
  }
  return RaExpr::Project(std::move(expr), head_schema.columns());
}

// The per-rule production expression: π over newest valuations, repair-key,
// head assembly. `valuation_source` is either the body expression
// (noninflationary) or body − oldVals (inflationary).
StatusOr<RaExpr::Ptr> RuleProduction(const Rule& rule,
                                     RaExpr::Ptr valuation_source,
                                     const Schema& head_schema) {
  RaExpr::Ptr proj =
      RaExpr::Project(std::move(valuation_source), rule.ProjectionColumns());
  return BuildHeadExpr(rule, std::move(proj), head_schema);
}

}  // namespace

StatusOr<TranslatedQuery> TranslateNonInflationary(const Program& program,
                                                   const Instance& edb) {
  TranslatedQuery out;
  PFQL_ASSIGN_OR_RETURN(out.initial, program.InitialInstance(edb));
  const auto schemas = out.initial.Schemas();

  // Group rule productions by head predicate; destructive assignment.
  std::map<std::string, RaExpr::Ptr> per_predicate;
  for (const auto& rule : program.rules()) {
    PFQL_ASSIGN_OR_RETURN(RaExpr::Ptr body, CompileBody(rule, schemas));
    body = Optimize(body, schemas);
    PFQL_ASSIGN_OR_RETURN(
        RaExpr::Ptr production,
        RuleProduction(rule, std::move(body),
                       program.CanonicalSchema(rule.head.predicate)));
    auto it = per_predicate.find(rule.head.predicate);
    if (it == per_predicate.end()) {
      per_predicate.emplace(rule.head.predicate, std::move(production));
    } else {
      it->second = RaExpr::Union(it->second, std::move(production));
    }
  }
  for (auto& [pred, expr] : per_predicate) {
    out.kernel.Define(pred, std::move(expr));
  }
  return out;
}

StatusOr<TranslatedQuery> TranslateInflationary(const Program& program,
                                                const Instance& edb) {
  TranslatedQuery out;
  PFQL_ASSIGN_OR_RETURN(out.initial, program.InitialInstance(edb));

  // Auxiliary oldVals relations, one per rule (schema = body variables).
  const auto& rules = program.rules();
  for (size_t r = 0; r < rules.size(); ++r) {
    if (out.initial.Has(OldValsName(r))) {
      return Status::InvalidArgument("relation name '" + OldValsName(r) +
                                     "' is reserved for the translation");
    }
    out.initial.Set(OldValsName(r),
                    Relation(Schema(rules[r].BodyVariables())));
  }
  const auto schemas = out.initial.Schemas();

  std::map<std::string, RaExpr::Ptr> per_predicate;
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    PFQL_ASSIGN_OR_RETURN(RaExpr::Ptr body, CompileBody(rule, schemas));
    body = Optimize(body, schemas);
    // oldVals_r := oldVals_r ∪ body   (reads the old state).
    out.kernel.Define(OldValsName(r),
                      RaExpr::Union(RaExpr::Base(OldValsName(r)), body));
    // Production uses only the *new* valuations: body − oldVals_r.
    RaExpr::Ptr fresh =
        RaExpr::Difference(body, RaExpr::Base(OldValsName(r)));
    PFQL_ASSIGN_OR_RETURN(
        RaExpr::Ptr production,
        RuleProduction(rule, std::move(fresh),
                       program.CanonicalSchema(rule.head.predicate)));
    auto it = per_predicate.find(rule.head.predicate);
    if (it == per_predicate.end()) {
      per_predicate.emplace(rule.head.predicate, std::move(production));
    } else {
      it->second = RaExpr::Union(it->second, std::move(production));
    }
  }
  // R := R ∪ productions (cumulative assignment).
  for (auto& [pred, expr] : per_predicate) {
    out.kernel.Define(pred,
                      RaExpr::Union(RaExpr::Base(pred), std::move(expr)));
  }
  return out;
}

StatusOr<TranslatedQuery> TranslateNonInflationaryWithPC(
    const Program& program, const PCDatabase& pc, const Instance& extra_edb) {
  PFQL_ASSIGN_OR_RETURN(CTableMacro macro, ExpandPCDatabase(pc));

  // EDB as seen by the program: certain relations plus the macro's initial
  // instantiation of each pc-table.
  Instance edb = extra_edb;
  for (const auto& [name, rel] : macro.base_relations.relations()) {
    if (name.rfind("__", 0) == 0) continue;  // macro-internal, added below
    if (edb.Has(name)) {
      return Status::AlreadyExists("relation '" + name +
                                   "' defined by both the pc-database and "
                                   "the extra EDB");
    }
    edb.Set(name, rel);
  }

  PFQL_ASSIGN_OR_RETURN(TranslatedQuery out,
                        TranslateNonInflationary(program, edb));

  // Macro-internal state relations (__varvals, __assign).
  for (const auto& [name, rel] : macro.base_relations.relations()) {
    if (name.rfind("__", 0) == 0) out.initial.Set(name, rel);
  }
  // Macro kernel entries: re-sample __assign and rebuild each pc-table
  // every step. A pc-table name must not also be an IDB predicate.
  for (const auto& [name, query] : macro.kernel.queries()) {
    if (out.kernel.Defines(name)) {
      return Status::InvalidArgument("relation '" + name +
                                     "' is both a pc-table and an IDB "
                                     "predicate");
    }
    out.kernel.Define(name, query);
  }
  return out;
}

}  // namespace datalog
}  // namespace pfql
