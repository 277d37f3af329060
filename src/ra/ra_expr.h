// Relational algebra extended with repair-key (paper Sec 2.2): the expression
// language from which probabilistic first-order interpretations (Def 3.1) are
// built. An expression maps a deterministic Instance to a *distribution* over
// relations (exact semantics) or to one sampled relation; ra/plan.h compiles
// it and evaluates it both ways.
//
// Randomness model: every syntactic occurrence of repair-key is an
// independent probabilistic choice, so sibling subtrees combine by product
// distribution — exactly the semantics the paper assigns to possible-worlds
// composition of repair-key applications.
#ifndef PFQL_RA_RA_EXPR_H_
#define PFQL_RA_RA_EXPR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "prob/repair_key.h"
#include "relational/expr.h"
#include "relational/relation.h"

namespace pfql {

/// AST node for relational algebra + repair-key.
class RaExpr {
 public:
  enum class Kind {
    kBase,       ///< named relation of the input instance
    kConst,      ///< literal relation
    kSelect,     ///< σ_pred
    kProject,    ///< π_cols
    kRename,     ///< ρ_{old→new}
    kExtend,     ///< add a column copying a column or holding a constant
    kJoin,       ///< natural join
    kProduct,    ///< ×
    kUnion,      ///< ∪
    kDifference, ///< −
    kIntersect,  ///< ∩
    kRepairKey,  ///< repair-key_A@P
  };

  using Ptr = std::shared_ptr<const RaExpr>;

  // ---- Factories -----------------------------------------------------
  static Ptr Base(std::string relation_name);
  static Ptr Const(Relation relation);
  static Ptr Select(Ptr child, std::shared_ptr<Predicate> pred);
  static Ptr Project(Ptr child, std::vector<std::string> columns);
  static Ptr Rename(Ptr child, std::map<std::string, std::string> renames);
  static Ptr Extend(Ptr child, std::string column,
                    std::shared_ptr<ScalarExpr> expr);
  static Ptr Join(Ptr left, Ptr right);
  static Ptr Product(Ptr left, Ptr right);
  static Ptr Union(Ptr left, Ptr right);
  static Ptr Difference(Ptr left, Ptr right);
  static Ptr Intersect(Ptr left, Ptr right);
  static Ptr RepairKey(Ptr child, RepairKeySpec spec);

  Kind kind() const { return kind_; }
  const std::string& relation_name() const { return name_; }
  const Relation& const_relation() const { return const_relation_; }
  const Ptr& left() const { return left_; }
  const Ptr& right() const { return right_; }
  const std::shared_ptr<Predicate>& predicate() const { return predicate_; }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::map<std::string, std::string>& renames() const {
    return renames_;
  }
  const std::string& extend_column() const { return extend_column_; }
  const std::shared_ptr<ScalarExpr>& extend_expr() const {
    return extend_expr_;
  }
  const RepairKeySpec& repair_spec() const { return repair_spec_; }

  std::string ToString() const;

 private:
  Kind kind_ = Kind::kBase;
  std::string name_;
  Relation const_relation_;
  Ptr left_, right_;
  std::shared_ptr<Predicate> predicate_;
  std::vector<std::string> columns_;
  std::map<std::string, std::string> renames_;
  std::string extend_column_;
  std::shared_ptr<ScalarExpr> extend_expr_;
  RepairKeySpec repair_spec_;
};

/// Limits for exact evaluation; exact world enumeration can blow up
/// exponentially in the number of repair-key groups (that is the point of
/// the paper's hardness results), so callers set a budget.
struct ExactEvalOptions {
  /// Maximum number of concurrently tracked worlds before giving up with
  /// ResourceExhausted.
  size_t max_worlds = 1 << 20;
};

}  // namespace pfql

#endif  // PFQL_RA_RA_EXPR_H_
