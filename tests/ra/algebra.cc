#include "ra/algebra.h"

#include <unordered_map>

namespace pfql {

StatusOr<Relation> Select(const Relation& rel,
                          const std::shared_ptr<Predicate>& pred) {
  RelationBuilder out(rel.schema());
  for (const auto& t : rel.tuples()) {
    PFQL_ASSIGN_OR_RETURN(bool keep, pred->Eval(rel.schema(), t));
    if (keep) out.Add(t);
  }
  return out.Seal();
}

StatusOr<Relation> Project(const Relation& rel,
                           const std::vector<std::string>& cols) {
  PFQL_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                        rel.schema().IndicesOf(cols));
  RelationBuilder out((Schema(cols)));
  out.Reserve(rel.size());
  for (const auto& t : rel.tuples()) out.Add(t.Project(idx));
  return out.Seal();
}

StatusOr<Relation> RenameColumns(
    const Relation& rel, const std::map<std::string, std::string>& m) {
  std::vector<std::string> cols = rel.schema().columns();
  for (const auto& [from, to] : m) {
    auto idx = rel.schema().IndexOf(from);
    if (!idx) {
      return Status::NotFound("rename source column '" + from +
                              "' not in schema " + rel.schema().ToString());
    }
    cols[*idx] = to;
  }
  return Relation::Make(Schema(std::move(cols)), rel.tuples());
}

StatusOr<Relation> NaturalJoin(const Relation& a, const Relation& b) {
  std::vector<std::string> common;
  for (const auto& c : a.schema().columns()) {
    if (b.schema().Contains(c)) common.push_back(c);
  }
  if (common.empty()) return Product(a, b);

  PFQL_ASSIGN_OR_RETURN(std::vector<size_t> a_key,
                        a.schema().IndicesOf(common));
  PFQL_ASSIGN_OR_RETURN(std::vector<size_t> b_key,
                        b.schema().IndicesOf(common));
  // Indices of b's columns not in common, in schema order.
  std::vector<size_t> b_rest;
  for (size_t i = 0; i < b.schema().size(); ++i) {
    if (!a.schema().Contains(b.schema().column(i))) b_rest.push_back(i);
  }

  // Hash the build side on the key tuple itself, so each build tuple is
  // projected exactly once and probes need no collision re-projection.
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> index;
  index.reserve(b.size());
  for (const auto& t : b.tuples()) {
    index[t.Project(b_key)].push_back(&t);
  }

  RelationBuilder out(a.schema().JoinWith(b.schema()));
  for (const auto& ta : a.tuples()) {
    auto it = index.find(ta.Project(a_key));
    if (it == index.end()) continue;
    for (const Tuple* tb : it->second) {
      Tuple joined = ta;
      for (size_t i : b_rest) joined.Append((*tb)[i]);
      out.Add(std::move(joined));
    }
  }
  return out.Seal();
}

StatusOr<Relation> Product(const Relation& a, const Relation& b) {
  PFQL_ASSIGN_OR_RETURN(Schema out_schema,
                        a.schema().ConcatDisjoint(b.schema()));
  RelationBuilder out(std::move(out_schema));
  out.Reserve(a.size() * b.size());
  for (const auto& ta : a.tuples()) {
    for (const auto& tb : b.tuples()) {
      Tuple joined = ta;
      for (const auto& v : tb.values()) joined.Append(v);
      out.Add(std::move(joined));
    }
  }
  return out.Seal();
}

StatusOr<Relation> Union(const Relation& a, const Relation& b) {
  return a.UnionWith(b);
}

namespace {

// a − b or a ∩ b, keeping a's schema.
StatusOr<Relation> Filter(const Relation& a, const Relation& b, bool keep_in_b,
                          const char* op) {
  if (!a.empty() && !b.empty() && a.schema().size() != b.schema().size()) {
    return Status::TypeError(std::string(op) + " of arity " +
                             std::to_string(a.schema().size()) +
                             " with arity " +
                             std::to_string(b.schema().size()));
  }
  std::vector<Tuple> out;
  for (const auto& t : a.tuples()) {
    if (b.Contains(t) == keep_in_b) out.push_back(t);
  }
  return Relation::Make(a.schema(), std::move(out));
}

}  // namespace

StatusOr<Relation> Difference(const Relation& a, const Relation& b) {
  return Filter(a, b, false, "difference");
}

StatusOr<Relation> Intersect(const Relation& a, const Relation& b) {
  return Filter(a, b, true, "intersection");
}

StatusOr<Relation> Extend(const Relation& rel, const std::string& new_column,
                          const std::shared_ptr<ScalarExpr>& expr) {
  if (rel.schema().Contains(new_column)) {
    return Status::AlreadyExists("extend column '" + new_column +
                                 "' already in schema");
  }
  std::vector<std::string> cols = rel.schema().columns();
  cols.push_back(new_column);
  RelationBuilder out((Schema(std::move(cols))));
  out.Reserve(rel.size());
  for (const auto& t : rel.tuples()) {
    PFQL_ASSIGN_OR_RETURN(Value v, expr->Eval(rel.schema(), t));
    Tuple extended = t;
    extended.Append(std::move(v));
    out.Add(std::move(extended));
  }
  return out.Seal();
}

Relation SingletonColumn(const std::string& column,
                         const std::vector<Value>& values) {
  Relation out(Schema({column}));
  for (const auto& v : values) out.Insert(Tuple{v});
  return out;
}

}  // namespace pfql
