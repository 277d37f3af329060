#include "ra/optimizer.h"

#include <algorithm>

namespace pfql {

namespace {

bool IsEmptyConst(const RaExpr::Ptr& e) {
  return e->kind() == RaExpr::Kind::kConst && e->const_relation().empty();
}

// The 0-ary relation holding the empty tuple: the unit of × and ⋈.
bool IsNullaryUnit(const RaExpr::Ptr& e) {
  return e->kind() == RaExpr::Kind::kConst &&
         e->const_relation().schema().empty() &&
         e->const_relation().size() == 1;
}

// The (empty) result relation for a node whose value is statically empty;
// needs the output schema, so when it cannot be inferred the rewrite is
// skipped.
RaExpr::Ptr EmptyConstFor(const RaExpr::Ptr& original,
                          const std::map<std::string, Schema>& schemas) {
  auto schema = InferSchema(original, schemas);
  if (!schema.ok()) return nullptr;
  return RaExpr::Const(Relation(std::move(schema).value()));
}

class Optimizer {
 public:
  explicit Optimizer(const std::map<std::string, Schema>& schemas)
      : schemas_(schemas) {}

  RaExpr::Ptr Rewrite(const RaExpr::Ptr& e) {
    switch (e->kind()) {
      case RaExpr::Kind::kBase:
      case RaExpr::Kind::kConst:
        return e;
      case RaExpr::Kind::kSelect:
        return RewriteSelect(e);
      case RaExpr::Kind::kProject: {
        RaExpr::Ptr child = Rewrite(e->left());
        // π_c2(π_c1(x)) -> π_c2(x): outer columns are named in the inner
        // output, and Project resolves by name against the grandchild too.
        if (child->kind() == RaExpr::Kind::kProject) {
          return RaExpr::Project(child->left(), e->columns());
        }
        return RaExpr::Project(std::move(child), e->columns());
      }
      case RaExpr::Kind::kRename: {
        RaExpr::Ptr child = Rewrite(e->left());
        if (e->renames().empty()) return child;
        if (child->kind() == RaExpr::Kind::kRename) {
          // Compose: first child's map, then e's map.
          std::map<std::string, std::string> composed = child->renames();
          std::map<std::string, std::string> outer = e->renames();
          for (auto& [from, to] : composed) {
            auto it = outer.find(to);
            if (it != outer.end()) {
              to = it->second;
              outer.erase(it);
            }
          }
          for (const auto& [from, to] : outer) composed[from] = to;
          // Drop identity entries.
          for (auto it = composed.begin(); it != composed.end();) {
            it = it->first == it->second ? composed.erase(it) : std::next(it);
          }
          if (composed.empty()) return child->left();
          return RaExpr::Rename(child->left(), std::move(composed));
        }
        return RaExpr::Rename(std::move(child), e->renames());
      }
      case RaExpr::Kind::kExtend:
        return RaExpr::Extend(Rewrite(e->left()), e->extend_column(),
                              e->extend_expr());
      case RaExpr::Kind::kJoin:
      case RaExpr::Kind::kProduct: {
        RaExpr::Ptr left = Rewrite(e->left());
        RaExpr::Ptr right = Rewrite(e->right());
        if (IsNullaryUnit(left)) return right;
        if (IsNullaryUnit(right)) return left;
        if (IsEmptyConst(left) || IsEmptyConst(right)) {
          if (RaExpr::Ptr empty = EmptyConstFor(e, schemas_)) return empty;
        }
        return e->kind() == RaExpr::Kind::kJoin
                   ? RaExpr::Join(std::move(left), std::move(right))
                   : RaExpr::Product(std::move(left), std::move(right));
      }
      case RaExpr::Kind::kUnion: {
        RaExpr::Ptr left = Rewrite(e->left());
        RaExpr::Ptr right = Rewrite(e->right());
        if (IsEmptyConst(right)) return left;
        if (IsEmptyConst(left)) return right;
        return RaExpr::Union(std::move(left), std::move(right));
      }
      case RaExpr::Kind::kDifference: {
        RaExpr::Ptr left = Rewrite(e->left());
        RaExpr::Ptr right = Rewrite(e->right());
        if (IsEmptyConst(right)) return left;
        if (IsEmptyConst(left)) return left;  // ∅ − e = ∅
        return RaExpr::Difference(std::move(left), std::move(right));
      }
      case RaExpr::Kind::kIntersect: {
        RaExpr::Ptr left = Rewrite(e->left());
        RaExpr::Ptr right = Rewrite(e->right());
        if (IsEmptyConst(left)) return left;
        if (IsEmptyConst(right)) return right;
        return RaExpr::Intersect(std::move(left), std::move(right));
      }
      case RaExpr::Kind::kRepairKey: {
        RaExpr::Ptr child = Rewrite(e->left());
        if (child->kind() == RaExpr::Kind::kConst) {
          auto groups = RepairKeyGroups(child->const_relation(),
                                        e->repair_spec());
          if (groups.ok()) {
            bool deterministic = true;
            RelationBuilder survivors(child->const_relation().schema());
            for (const auto& g : *groups) {
              if (g.alternatives.size() != 1) {
                deterministic = false;
                break;
              }
              survivors.Add(g.alternatives[0].first);
            }
            // All-singleton groups: the repair is unique and certain.
            if (deterministic) {
              auto sealed = survivors.Seal();
              if (sealed.ok()) {
                return RaExpr::Const(std::move(sealed).value());
              }
            }
          }
        }
        return RaExpr::RepairKey(std::move(child), e->repair_spec());
      }
    }
    return e;
  }

 private:
  RaExpr::Ptr RewriteSelect(const RaExpr::Ptr& e) {
    RaExpr::Ptr child = Rewrite(e->left());
    std::shared_ptr<Predicate> pred = e->predicate();
    if (pred->kind() == Predicate::Kind::kTrue) return child;
    // Fuse stacked selections.
    while (child->kind() == RaExpr::Kind::kSelect) {
      pred = Predicate::And(pred, child->predicate());
      child = child->left();
    }
    if (IsEmptyConst(child)) return child;
    // Pushdown into join/product when the predicate touches only one side.
    if (child->kind() == RaExpr::Kind::kJoin ||
        child->kind() == RaExpr::Kind::kProduct) {
      auto left_schema = InferSchema(child->left(), schemas_);
      auto right_schema = InferSchema(child->right(), schemas_);
      if (left_schema.ok() && right_schema.ok()) {
        std::vector<std::string> used;
        pred->CollectColumns(&used);
        auto all_in = [&](const Schema& s) {
          return std::all_of(used.begin(), used.end(), [&](const auto& c) {
            return s.Contains(c);
          });
        };
        // For joins, a column present on both sides is equal on both, so
        // pushing to either side is sound as long as ALL used columns are
        // on that side.
        auto rebuild = [&](RaExpr::Ptr l, RaExpr::Ptr r) {
          return child->kind() == RaExpr::Kind::kJoin
                     ? RaExpr::Join(std::move(l), std::move(r))
                     : RaExpr::Product(std::move(l), std::move(r));
        };
        if (all_in(*left_schema)) {
          return rebuild(
              Rewrite(RaExpr::Select(child->left(), std::move(pred))),
              child->right());
        }
        if (all_in(*right_schema)) {
          return rebuild(child->left(),
                         Rewrite(RaExpr::Select(child->right(),
                                                std::move(pred))));
        }
      }
    }
    return RaExpr::Select(std::move(child), std::move(pred));
  }

  const std::map<std::string, Schema>& schemas_;
};

}  // namespace

RaExpr::Ptr Optimize(const RaExpr::Ptr& expr,
                     const std::map<std::string, Schema>& schemas) {
  if (expr == nullptr) return expr;
  Optimizer optimizer(schemas);
  return optimizer.Rewrite(expr);
}

size_t ExprSize(const RaExpr::Ptr& expr) {
  if (expr == nullptr) return 0;
  return 1 + ExprSize(expr->left()) + ExprSize(expr->right());
}

}  // namespace pfql
