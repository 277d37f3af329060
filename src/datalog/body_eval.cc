#include "datalog/body_eval.h"

#include <algorithm>

namespace pfql {
namespace datalog {

namespace {

// Compiles one relational atom to an RaExpr with schema = the atom's
// distinct variables (first occurrence order).
StatusOr<RaExpr::Ptr> CompileAtom(const Atom& atom,
                                  const std::map<std::string, Schema>& schemas) {
  auto it = schemas.find(atom.predicate);
  if (it == schemas.end()) {
    return Status::NotFound("no schema for predicate '" + atom.predicate +
                            "'");
  }
  const Schema& schema = it->second;
  if (schema.size() != atom.terms.size()) {
    return Status::TypeError("atom " + atom.ToString() + " has arity " +
                             std::to_string(atom.terms.size()) +
                             " but relation schema is " + schema.ToString());
  }

  RaExpr::Ptr expr = RaExpr::Base(atom.predicate);

  // Constant positions: select equality with the constant.
  // Repeated variables: select column equality with the first occurrence.
  std::map<std::string, size_t> first_occurrence;
  std::vector<size_t> keep;  // first-occurrence positions, in order
  std::vector<std::string> var_names;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (!t.IsVar()) {
      expr = RaExpr::Select(
          expr, Predicate::ColumnEquals(schema.column(i), t.value));
      continue;
    }
    auto [fit, inserted] = first_occurrence.emplace(t.var, i);
    if (inserted) {
      keep.push_back(i);
      var_names.push_back(t.var);
    } else {
      expr = RaExpr::Select(expr,
                            Predicate::ColumnsEqual(schema.column(fit->second),
                                                    schema.column(i)));
    }
  }

  // Project onto the first-occurrence columns and rename them to variables.
  std::vector<std::string> keep_cols;
  keep_cols.reserve(keep.size());
  for (size_t i : keep) keep_cols.push_back(schema.column(i));
  expr = RaExpr::Project(expr, keep_cols);
  std::map<std::string, std::string> renames;
  for (size_t k = 0; k < keep.size(); ++k) {
    if (keep_cols[k] != var_names[k]) renames[keep_cols[k]] = var_names[k];
  }
  if (!renames.empty()) expr = RaExpr::Rename(expr, renames);
  return expr;
}

std::shared_ptr<ScalarExpr> TermToScalar(const Term& t) {
  return t.IsVar() ? ScalarExpr::Column(t.var) : ScalarExpr::Const(t.value);
}

}  // namespace

StatusOr<RaExpr::Ptr> CompileBody(
    const Rule& rule, const std::map<std::string, Schema>& schemas) {
  RaExpr::Ptr expr;
  if (rule.body.empty()) {
    // The single empty valuation: a 0-ary relation with the empty tuple.
    Relation nullary{Schema{}};
    nullary.Insert(Tuple{});
    expr = RaExpr::Const(std::move(nullary));
  } else {
    for (const auto& atom : rule.body) {
      PFQL_ASSIGN_OR_RETURN(RaExpr::Ptr atom_expr,
                            CompileAtom(atom, schemas));
      expr = expr == nullptr ? atom_expr
                             : RaExpr::Join(std::move(expr), atom_expr);
    }
  }
  for (const auto& builtin : rule.builtins) {
    expr = RaExpr::Select(expr,
                          Predicate::Cmp(builtin.op, TermToScalar(builtin.lhs),
                                         TermToScalar(builtin.rhs)));
  }
  // Normalize the output column order to BodyVariables(). (Joins produce
  // first-occurrence order already, but projecting makes it explicit and
  // drops nothing since join outputs exactly the body variables.)
  std::vector<std::string> body_vars = rule.BodyVariables();
  if (!rule.body.empty()) {
    expr = RaExpr::Project(expr, body_vars);
  }
  return expr;
}

StatusOr<HeadLayout> HeadLayout::Resolve(const std::vector<Term>& terms,
                                         const Schema& binding_schema) {
  HeadLayout layout;
  for (const auto& term : terms) {
    if (!term.IsVar()) {
      layout.slots_.push_back({0, term.value});
      continue;
    }
    auto idx = binding_schema.IndexOf(term.var);
    if (!idx) {
      return Status::NotFound("variable '" + term.var +
                              "' missing from binding schema " +
                              binding_schema.ToString());
    }
    layout.slots_.push_back({*idx, std::nullopt});
  }
  return layout;
}

Tuple HeadLayout::Build(const Tuple& binding) const {
  std::vector<Value> values;
  values.reserve(slots_.size());
  for (const Slot& t : slots_) {
    values.push_back(t.constant ? *t.constant : binding[t.position]);
  }
  return Tuple(std::move(values));
}

}  // namespace datalog
}  // namespace pfql
