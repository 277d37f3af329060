// Row-level scalar expressions and boolean predicates, used by the relational
// algebra Select operator and by datalog built-in atoms (X != Y, X < 3, ...).
#ifndef PFQL_RELATIONAL_EXPR_H_
#define PFQL_RELATIONAL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "util/status.h"

namespace pfql {

/// Scalar expression over a row: a column reference or a constant. There is
/// no arithmetic, so no expression invents a value outside the active
/// domain (Prop 5.4).
class ScalarExpr {
 public:
  enum class Kind { kColumn, kConst };

  /// Reference to a named column.
  static std::shared_ptr<ScalarExpr> Column(std::string name);
  /// Literal value.
  static std::shared_ptr<ScalarExpr> Const(Value v);

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return column_; }
  const Value& constant() const { return constant_; }

  /// Evaluates against one row. Column lookups are resolved by name in
  /// `schema`.
  StatusOr<Value> Eval(const Schema& schema, const Tuple& row) const;

  /// Column names referenced anywhere in the expression.
  void CollectColumns(std::vector<std::string>* out) const;

  std::string ToString() const;

 private:
  Kind kind_ = Kind::kConst;
  std::string column_;
  Value constant_;
};

/// Comparison operator for predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpToString(CmpOp op);

/// `lhs op rhs`, the one comparison of select predicates, datalog builtins,
/// an atom's constants and its repeated variables: an int and a double
/// compare numerically (1 == 1.0, 2 > 1.5), every other pair by
/// Value::Compare (so a string is greater than every number).
bool CmpHolds(CmpOp op, const Value& lhs, const Value& rhs);

/// Boolean predicate over a row.
class Predicate {
 public:
  enum class Kind { kTrue, kCmp, kAnd, kOr, kNot };

  static std::shared_ptr<Predicate> True();
  static std::shared_ptr<Predicate> Cmp(CmpOp op,
                                        std::shared_ptr<ScalarExpr> l,
                                        std::shared_ptr<ScalarExpr> r);
  static std::shared_ptr<Predicate> And(std::shared_ptr<Predicate> l,
                                        std::shared_ptr<Predicate> r);
  static std::shared_ptr<Predicate> Or(std::shared_ptr<Predicate> l,
                                       std::shared_ptr<Predicate> r);
  static std::shared_ptr<Predicate> Not(std::shared_ptr<Predicate> p);

  /// Convenience: column `name` == literal `v`.
  static std::shared_ptr<Predicate> ColumnEquals(std::string name, Value v);
  /// Convenience: column `a` == column `b`.
  static std::shared_ptr<Predicate> ColumnsEqual(std::string a, std::string b);

  Kind kind() const { return kind_; }

  StatusOr<bool> Eval(const Schema& schema, const Tuple& row) const;

  void CollectColumns(std::vector<std::string>* out) const;

  std::string ToString() const;

 private:
  Kind kind_ = Kind::kTrue;
  CmpOp op_ = CmpOp::kEq;
  std::shared_ptr<ScalarExpr> sl_, sr_;
  std::shared_ptr<Predicate> pl_, pr_;
};

}  // namespace pfql

#endif  // PFQL_RELATIONAL_EXPR_H_
