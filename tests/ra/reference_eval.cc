#include "ra/reference_eval.h"

#include <functional>
#include <map>

#include "prob/repair_key.h"
#include "relational/algebra.h"

namespace pfql {
namespace reference {

namespace {

// ---- Repair-key by name, grouped through a std::map ----------------------
// Independent of the positional core in prob/repair_key.cc (which groups a
// prefix key by scanning and any other key by sorting), so the plans'
// grouping is checked against it draw for draw.

// Group key tuple -> member row indices, in row order.
struct Groups {
  std::map<Tuple, std::vector<size_t>> by_key;
  std::optional<size_t> weight_idx;
};

StatusOr<Groups> BuildGroups(const Relation& rel, const RepairKeySpec& spec) {
  Groups g;
  PFQL_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                        rel.schema().IndicesOf(spec.key_columns));
  if (spec.weight_column) {
    g.weight_idx = rel.schema().IndexOf(*spec.weight_column);
    if (!g.weight_idx) {
      return Status::NotFound("repair-key weight column '" +
                              *spec.weight_column + "' not in schema " +
                              rel.schema().ToString());
    }
  }
  for (size_t i = 0; i < rel.tuples().size(); ++i) {
    g.by_key[rel.tuples()[i].Project(key_idx)].push_back(i);
  }
  return g;
}

StatusOr<BigRational> MemberWeight(const Relation& rel, const Groups& g,
                                   size_t row) {
  if (!g.weight_idx) return BigRational(1);
  PFQL_ASSIGN_OR_RETURN(BigRational w,
                        rel.tuples()[row][*g.weight_idx].ToExactNumeric());
  if (w.IsNegative()) {
    return Status::InvalidArgument("negative repair-key weight " +
                                   w.ToString());
  }
  return w;
}

// Every repair of `rel`, with its exact probability.
StatusOr<Distribution<Relation>> EnumerateRepairs(const Relation& rel,
                                                  const RepairKeySpec& spec) {
  PFQL_ASSIGN_OR_RETURN(Groups groups, BuildGroups(rel, spec));
  std::vector<std::vector<std::pair<size_t, BigRational>>> alternatives;
  for (const auto& [key, members] : groups.by_key) {
    BigRational total;
    std::vector<BigRational> weights;
    for (size_t row : members) {
      PFQL_ASSIGN_OR_RETURN(BigRational w, MemberWeight(rel, groups, row));
      total += w;
      weights.push_back(std::move(w));
    }
    if (total.IsZero()) {
      return Status::InvalidArgument("repair-key group with key " +
                                     key.ToString() + " has total weight zero");
    }
    alternatives.emplace_back();
    for (size_t i = 0; i < members.size(); ++i) {
      if (weights[i].IsZero()) continue;
      alternatives.back().emplace_back(members[i], weights[i] / total);
    }
  }
  Distribution<Relation> dist;
  std::vector<size_t> chosen;
  std::function<Status(BigRational)> recurse = [&](BigRational p) -> Status {
    const size_t depth = chosen.size();
    if (depth == alternatives.size()) {
      RelationBuilder world(rel.schema());
      for (size_t g = 0; g < depth; ++g) {
        world.Add(rel.tuples()[alternatives[g][chosen[g]].first]);
      }
      PFQL_ASSIGN_OR_RETURN(Relation sealed, world.Seal());
      dist.Add(std::move(sealed), std::move(p));
      return Status::OK();
    }
    for (size_t c = 0; c < alternatives[depth].size(); ++c) {
      chosen.push_back(c);
      PFQL_RETURN_NOT_OK(recurse(p * alternatives[depth][c].second));
      chosen.pop_back();
    }
    return Status::OK();
  };
  PFQL_RETURN_NOT_OK(recurse(BigRational(1)));
  dist.Normalize();
  return dist;
}

// One repair of `rel`: per group in key order, one draw over its members in
// row order.
StatusOr<Relation> SampleRepair(const Relation& rel, const RepairKeySpec& spec,
                                Rng* rng) {
  PFQL_ASSIGN_OR_RETURN(Groups groups, BuildGroups(rel, spec));
  RelationBuilder world(rel.schema());
  for (const auto& [key, members] : groups.by_key) {
    std::vector<double> weights(members.size(), 1.0);
    if (groups.weight_idx) {
      for (size_t i = 0; i < members.size(); ++i) {
        PFQL_ASSIGN_OR_RETURN(
            weights[i], rel.tuples()[members[i]][*groups.weight_idx].ToNumeric());
        if (weights[i] < 0) {
          return Status::InvalidArgument("negative repair-key weight");
        }
      }
    }
    const size_t pick = rng->NextWeighted(weights);
    if (pick == weights.size()) {
      return Status::InvalidArgument("repair-key group with key " +
                                     key.ToString() + " has total weight zero");
    }
    world.Add(rel.tuples()[members[pick]]);
  }
  return world.Seal();
}

// ---- The walker ----------------------------------------------------------

// Applies the deterministic part of a unary node to one world.
StatusOr<Relation> ApplyUnary(const RaExpr& e, const Relation& in) {
  switch (e.kind()) {
    case RaExpr::Kind::kSelect:
      return Select(in, e.predicate());
    case RaExpr::Kind::kProject:
      return Project(in, e.columns());
    case RaExpr::Kind::kRename:
      return RenameColumns(in, e.renames());
    case RaExpr::Kind::kExtend:
      return Extend(in, e.extend_column(), e.extend_expr());
    default:
      return Status::Internal("ApplyUnary on non-unary node");
  }
}

// Applies a deterministic binary operator to a pair of worlds.
StatusOr<Relation> ApplyBinary(const RaExpr& e, const Relation& a,
                               const Relation& b) {
  switch (e.kind()) {
    case RaExpr::Kind::kJoin:
      return NaturalJoin(a, b);
    case RaExpr::Kind::kProduct:
      return Product(a, b);
    case RaExpr::Kind::kUnion:
      return Union(a, b);
    case RaExpr::Kind::kDifference:
      return Difference(a, b);
    case RaExpr::Kind::kIntersect:
      return Intersect(a, b);
    default:
      return Status::Internal("ApplyBinary on non-binary node");
  }
}

}  // namespace

StatusOr<Distribution<Relation>> EvalExact(const RaExpr::Ptr& expr,
                                           const Instance& instance,
                                           const ExactEvalOptions& options) {
  if (expr == nullptr) return Status::InvalidArgument("null RaExpr");
  const RaExpr& e = *expr;
  switch (e.kind()) {
    case RaExpr::Kind::kBase: {
      PFQL_ASSIGN_OR_RETURN(Relation rel, instance.Get(e.relation_name()));
      return Distribution<Relation>::Point(std::move(rel));
    }
    case RaExpr::Kind::kConst:
      return Distribution<Relation>::Point(e.const_relation());
    case RaExpr::Kind::kSelect:
    case RaExpr::Kind::kProject:
    case RaExpr::Kind::kRename:
    case RaExpr::Kind::kExtend: {
      PFQL_ASSIGN_OR_RETURN(Distribution<Relation> child,
                            EvalExact(e.left(), instance, options));
      Distribution<Relation> out;
      for (const auto& o : child.outcomes()) {
        PFQL_ASSIGN_OR_RETURN(Relation r, ApplyUnary(e, o.value));
        out.Add(std::move(r), o.probability);
      }
      out.Normalize();
      return out;
    }
    case RaExpr::Kind::kJoin:
    case RaExpr::Kind::kProduct:
    case RaExpr::Kind::kUnion:
    case RaExpr::Kind::kDifference:
    case RaExpr::Kind::kIntersect: {
      PFQL_ASSIGN_OR_RETURN(Distribution<Relation> left,
                            EvalExact(e.left(), instance, options));
      PFQL_ASSIGN_OR_RETURN(Distribution<Relation> right,
                            EvalExact(e.right(), instance, options));
      if (left.size() * right.size() > options.max_worlds) {
        return Status::ResourceExhausted(
            "exact evaluation exceeds max_worlds = " +
            std::to_string(options.max_worlds));
      }
      Distribution<Relation> out;
      for (const auto& ol : left.outcomes()) {
        for (const auto& orr : right.outcomes()) {
          PFQL_ASSIGN_OR_RETURN(Relation r, ApplyBinary(e, ol.value, orr.value));
          out.Add(std::move(r), ol.probability * orr.probability);
        }
      }
      out.Normalize();
      return out;
    }
    case RaExpr::Kind::kRepairKey: {
      PFQL_ASSIGN_OR_RETURN(Distribution<Relation> child,
                            EvalExact(e.left(), instance, options));
      Distribution<Relation> out;
      size_t produced = 0;
      for (const auto& o : child.outcomes()) {
        PFQL_ASSIGN_OR_RETURN(Distribution<Relation> repairs,
                              EnumerateRepairs(o.value, e.repair_spec()));
        produced += repairs.size();
        if (produced > options.max_worlds) {
          return Status::ResourceExhausted(
              "repair-key enumeration exceeds max_worlds = " +
              std::to_string(options.max_worlds));
        }
        for (const auto& ro : repairs.outcomes()) {
          out.Add(ro.value, ro.probability * o.probability);
        }
      }
      out.Normalize();
      return out;
    }
  }
  return Status::Internal("corrupt RaExpr");
}

StatusOr<Relation> EvalSample(const RaExpr::Ptr& expr,
                              const Instance& instance, Rng* rng) {
  if (expr == nullptr) return Status::InvalidArgument("null RaExpr");
  const RaExpr& e = *expr;
  switch (e.kind()) {
    case RaExpr::Kind::kBase:
      return instance.Get(e.relation_name());
    case RaExpr::Kind::kConst:
      return e.const_relation();
    case RaExpr::Kind::kSelect:
    case RaExpr::Kind::kProject:
    case RaExpr::Kind::kRename:
    case RaExpr::Kind::kExtend: {
      PFQL_ASSIGN_OR_RETURN(Relation child, EvalSample(e.left(), instance, rng));
      return ApplyUnary(e, child);
    }
    case RaExpr::Kind::kJoin:
    case RaExpr::Kind::kProduct:
    case RaExpr::Kind::kUnion:
    case RaExpr::Kind::kDifference:
    case RaExpr::Kind::kIntersect: {
      PFQL_ASSIGN_OR_RETURN(Relation a, EvalSample(e.left(), instance, rng));
      PFQL_ASSIGN_OR_RETURN(Relation b, EvalSample(e.right(), instance, rng));
      return ApplyBinary(e, a, b);
    }
    case RaExpr::Kind::kRepairKey: {
      PFQL_ASSIGN_OR_RETURN(Relation child, EvalSample(e.left(), instance, rng));
      return SampleRepair(child, e.repair_spec(), rng);
    }
  }
  return Status::Internal("corrupt RaExpr");
}

StatusOr<Schema> InferSchema(const RaExpr::Ptr& expr,
                             const std::map<std::string, Schema>& schemas) {
  if (expr == nullptr) return Status::InvalidArgument("null RaExpr");
  const RaExpr& e = *expr;
  switch (e.kind()) {
    case RaExpr::Kind::kBase: {
      auto it = schemas.find(e.relation_name());
      if (it == schemas.end()) {
        return Status::NotFound("unknown relation '" + e.relation_name() +
                                "'");
      }
      return it->second;
    }
    case RaExpr::Kind::kConst:
      return e.const_relation().schema();
    case RaExpr::Kind::kSelect: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      std::vector<std::string> used;
      e.predicate()->CollectColumns(&used);
      for (const auto& c : used) {
        if (!s.Contains(c)) {
          return Status::NotFound("selection references unknown column '" +
                                  c + "' in " + s.ToString());
        }
      }
      return s;
    }
    case RaExpr::Kind::kProject: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      PFQL_RETURN_NOT_OK(s.IndicesOf(e.columns()).status());
      Schema out(e.columns());
      PFQL_RETURN_NOT_OK(out.Validate());
      return out;
    }
    case RaExpr::Kind::kRename: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      std::vector<std::string> cols = s.columns();
      for (const auto& [from, to] : e.renames()) {
        auto idx = s.IndexOf(from);
        if (!idx) {
          return Status::NotFound("rename source '" + from + "' not in " +
                                  s.ToString());
        }
        cols[*idx] = to;
      }
      Schema out(std::move(cols));
      PFQL_RETURN_NOT_OK(out.Validate());
      return out;
    }
    case RaExpr::Kind::kExtend: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      if (s.Contains(e.extend_column())) {
        return Status::AlreadyExists("extend column '" + e.extend_column() +
                                     "' already in " + s.ToString());
      }
      std::vector<std::string> used;
      e.extend_expr()->CollectColumns(&used);
      for (const auto& c : used) {
        if (!s.Contains(c)) {
          return Status::NotFound("extend references unknown column '" + c +
                                  "'");
        }
      }
      std::vector<std::string> cols = s.columns();
      cols.push_back(e.extend_column());
      return Schema(std::move(cols));
    }
    case RaExpr::Kind::kJoin: {
      PFQL_ASSIGN_OR_RETURN(Schema a, InferSchema(e.left(), schemas));
      PFQL_ASSIGN_OR_RETURN(Schema b, InferSchema(e.right(), schemas));
      return a.JoinWith(b);
    }
    case RaExpr::Kind::kProduct: {
      PFQL_ASSIGN_OR_RETURN(Schema a, InferSchema(e.left(), schemas));
      PFQL_ASSIGN_OR_RETURN(Schema b, InferSchema(e.right(), schemas));
      return a.ConcatDisjoint(b);
    }
    case RaExpr::Kind::kUnion:
    case RaExpr::Kind::kDifference:
    case RaExpr::Kind::kIntersect: {
      PFQL_ASSIGN_OR_RETURN(Schema a, InferSchema(e.left(), schemas));
      PFQL_ASSIGN_OR_RETURN(Schema b, InferSchema(e.right(), schemas));
      if (a.size() != b.size()) {
        return Status::TypeError("set operation on schemas of arity " +
                                 std::to_string(a.size()) + " and " +
                                 std::to_string(b.size()));
      }
      return a;
    }
    case RaExpr::Kind::kRepairKey: {
      PFQL_ASSIGN_OR_RETURN(Schema s, InferSchema(e.left(), schemas));
      PFQL_RETURN_NOT_OK(s.IndicesOf(e.repair_spec().key_columns).status());
      if (e.repair_spec().weight_column &&
          !s.Contains(*e.repair_spec().weight_column)) {
        return Status::NotFound("repair-key weight column '" +
                                *e.repair_spec().weight_column + "' not in " +
                                s.ToString());
      }
      return s;
    }
  }
  return Status::Internal("corrupt RaExpr");
}

}  // namespace reference
}  // namespace pfql
