#include "ra/ra_expr.h"

#include "util/string_util.h"

namespace pfql {

namespace {
std::shared_ptr<RaExpr> New() { return std::make_shared<RaExpr>(); }
}  // namespace

RaExpr::Ptr RaExpr::Base(std::string relation_name) {
  auto e = New();
  e->kind_ = Kind::kBase;
  e->name_ = std::move(relation_name);
  return e;
}

RaExpr::Ptr RaExpr::Const(Relation relation) {
  auto e = New();
  e->kind_ = Kind::kConst;
  e->const_relation_ = std::move(relation);
  return e;
}

RaExpr::Ptr RaExpr::Select(Ptr child, std::shared_ptr<Predicate> pred) {
  auto e = New();
  e->kind_ = Kind::kSelect;
  e->left_ = std::move(child);
  e->predicate_ = std::move(pred);
  return e;
}

RaExpr::Ptr RaExpr::Project(Ptr child, std::vector<std::string> columns) {
  auto e = New();
  e->kind_ = Kind::kProject;
  e->left_ = std::move(child);
  e->columns_ = std::move(columns);
  return e;
}

RaExpr::Ptr RaExpr::Rename(Ptr child,
                           std::map<std::string, std::string> renames) {
  auto e = New();
  e->kind_ = Kind::kRename;
  e->left_ = std::move(child);
  e->renames_ = std::move(renames);
  return e;
}

RaExpr::Ptr RaExpr::Extend(Ptr child, std::string column,
                           std::shared_ptr<ScalarExpr> expr) {
  auto e = New();
  e->kind_ = Kind::kExtend;
  e->left_ = std::move(child);
  e->extend_column_ = std::move(column);
  e->extend_expr_ = std::move(expr);
  return e;
}

#define PFQL_RA_BINARY_FACTORY(Name, KindValue)            \
  RaExpr::Ptr RaExpr::Name(Ptr left, Ptr right) {          \
    auto e = New();                                        \
    e->kind_ = Kind::KindValue;                            \
    e->left_ = std::move(left);                            \
    e->right_ = std::move(right);                          \
    return e;                                              \
  }

PFQL_RA_BINARY_FACTORY(Join, kJoin)
PFQL_RA_BINARY_FACTORY(Product, kProduct)
PFQL_RA_BINARY_FACTORY(Union, kUnion)
PFQL_RA_BINARY_FACTORY(Difference, kDifference)
PFQL_RA_BINARY_FACTORY(Intersect, kIntersect)

#undef PFQL_RA_BINARY_FACTORY

RaExpr::Ptr RaExpr::RepairKey(Ptr child, RepairKeySpec spec) {
  auto e = New();
  e->kind_ = Kind::kRepairKey;
  e->left_ = std::move(child);
  e->repair_spec_ = std::move(spec);
  return e;
}

namespace {
// "(l op r)", built by appends: GCC 12 warns falsely (-Wrestrict) on
// "(" + std::string&& once it inlines operator+.
std::string Infix(const RaExpr& l, const char* op, const RaExpr& r) {
  std::string out = "(";
  out += l.ToString();
  out += ' ';
  out += op;
  out += ' ';
  out += r.ToString();
  out += ')';
  return out;
}
}  // namespace

std::string RaExpr::ToString() const {
  switch (kind_) {
    case Kind::kBase:
      return name_;
    case Kind::kConst:
      return const_relation_.ToString();
    case Kind::kSelect:
      return "select[" + predicate_->ToString() + "](" + left_->ToString() +
             ")";
    case Kind::kProject:
      return "project[" + JoinStrings(columns_, ", ") + "](" +
             left_->ToString() + ")";
    case Kind::kRename: {
      std::string pairs;
      for (const auto& [from, to] : renames_) {
        if (!pairs.empty()) pairs += ", ";
        pairs += from + "->" + to;
      }
      return "rename[" + pairs + "](" + left_->ToString() + ")";
    }
    case Kind::kExtend:
      return "extend[" + extend_column_ + " := " + extend_expr_->ToString() +
             "](" + left_->ToString() + ")";
    case Kind::kJoin:
      return Infix(*left_, "join", *right_);
    case Kind::kProduct:
      return Infix(*left_, "x", *right_);
    case Kind::kUnion:
      return Infix(*left_, "union", *right_);
    case Kind::kDifference:
      return Infix(*left_, "-", *right_);
    case Kind::kIntersect:
      return Infix(*left_, "intersect", *right_);
    case Kind::kRepairKey: {
      std::string spec = JoinStrings(repair_spec_.key_columns, ", ");
      if (repair_spec_.weight_column) spec += " @ " + *repair_spec_.weight_column;
      return "repair-key[" + spec + "](" + left_->ToString() + ")";
    }
  }
  return "<corrupt>";
}

}  // namespace pfql
