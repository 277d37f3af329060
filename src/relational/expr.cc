#include "relational/expr.h"

namespace pfql {

std::shared_ptr<ScalarExpr> ScalarExpr::Column(std::string name) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind_ = Kind::kColumn;
  e->column_ = std::move(name);
  return e;
}

std::shared_ptr<ScalarExpr> ScalarExpr::Const(Value v) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind_ = Kind::kConst;
  e->constant_ = std::move(v);
  return e;
}

StatusOr<Value> ScalarExpr::Eval(const Schema& schema,
                                 const Tuple& row) const {
  switch (kind_) {
    case Kind::kColumn: {
      auto idx = schema.IndexOf(column_);
      if (!idx) {
        return Status::NotFound("column '" + column_ + "' not in schema " +
                                schema.ToString());
      }
      return row[*idx];
    }
    case Kind::kConst:
      return constant_;
  }
  return Status::Internal("corrupt ScalarExpr");
}

void ScalarExpr::CollectColumns(std::vector<std::string>* out) const {
  if (kind_ == Kind::kColumn) out->push_back(column_);
}

std::string ScalarExpr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return column_;
    case Kind::kConst: {
      if (!constant_.is_string()) return constant_.ToString();
      // As in datalog::Term: a quote character the literal does not hold.
      const std::string& text = constant_.AsString();
      const char quote = text.find('\'') == std::string::npos ? '\'' : '"';
      return quote + text + quote;
    }
  }
  return "<corrupt>";
}

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool CmpHolds(CmpOp op, const Value& lhs, const Value& rhs) {
  int c = lhs.Compare(rhs);
  if (lhs.type() != rhs.type() && !lhs.is_string() && !rhs.is_string()) {
    const double a = lhs.is_int() ? lhs.AsInt() : lhs.AsDouble();
    const double b = rhs.is_int() ? rhs.AsInt() : rhs.AsDouble();
    c = a < b ? -1 : (a > b ? 1 : 0);
  }
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

std::shared_ptr<Predicate> Predicate::True() {
  return std::make_shared<Predicate>();
}

std::shared_ptr<Predicate> Predicate::Cmp(CmpOp op,
                                          std::shared_ptr<ScalarExpr> l,
                                          std::shared_ptr<ScalarExpr> r) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kCmp;
  p->op_ = op;
  p->sl_ = std::move(l);
  p->sr_ = std::move(r);
  return p;
}

std::shared_ptr<Predicate> Predicate::And(std::shared_ptr<Predicate> l,
                                          std::shared_ptr<Predicate> r) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kAnd;
  p->pl_ = std::move(l);
  p->pr_ = std::move(r);
  return p;
}

std::shared_ptr<Predicate> Predicate::Or(std::shared_ptr<Predicate> l,
                                         std::shared_ptr<Predicate> r) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kOr;
  p->pl_ = std::move(l);
  p->pr_ = std::move(r);
  return p;
}

std::shared_ptr<Predicate> Predicate::Not(std::shared_ptr<Predicate> inner) {
  auto p = std::make_shared<Predicate>();
  p->kind_ = Kind::kNot;
  p->pl_ = std::move(inner);
  return p;
}

std::shared_ptr<Predicate> Predicate::ColumnEquals(std::string name,
                                                   Value v) {
  return Cmp(CmpOp::kEq, ScalarExpr::Column(std::move(name)),
             ScalarExpr::Const(std::move(v)));
}

std::shared_ptr<Predicate> Predicate::ColumnsEqual(std::string a,
                                                   std::string b) {
  return Cmp(CmpOp::kEq, ScalarExpr::Column(std::move(a)),
             ScalarExpr::Column(std::move(b)));
}

StatusOr<bool> Predicate::Eval(const Schema& schema, const Tuple& row) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCmp: {
      PFQL_ASSIGN_OR_RETURN(Value lv, sl_->Eval(schema, row));
      PFQL_ASSIGN_OR_RETURN(Value rv, sr_->Eval(schema, row));
      return CmpHolds(op_, lv, rv);
    }
    case Kind::kAnd: {
      PFQL_ASSIGN_OR_RETURN(bool a, pl_->Eval(schema, row));
      if (!a) return false;
      return pr_->Eval(schema, row);
    }
    case Kind::kOr: {
      PFQL_ASSIGN_OR_RETURN(bool a, pl_->Eval(schema, row));
      if (a) return true;
      return pr_->Eval(schema, row);
    }
    case Kind::kNot: {
      PFQL_ASSIGN_OR_RETURN(bool a, pl_->Eval(schema, row));
      return !a;
    }
  }
  return Status::Internal("corrupt Predicate");
}

void Predicate::CollectColumns(std::vector<std::string>* out) const {
  switch (kind_) {
    case Kind::kTrue:
      break;
    case Kind::kCmp:
      sl_->CollectColumns(out);
      sr_->CollectColumns(out);
      break;
    case Kind::kAnd:
    case Kind::kOr:
      pl_->CollectColumns(out);
      pr_->CollectColumns(out);
      break;
    case Kind::kNot:
      pl_->CollectColumns(out);
      break;
  }
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kCmp:
      return sl_->ToString() + " " + CmpOpToString(op_) + " " +
             sr_->ToString();
    case Kind::kAnd:
      return "(" + pl_->ToString() + " and " + pr_->ToString() + ")";
    case Kind::kOr:
      return "(" + pl_->ToString() + " or " + pr_->ToString() + ")";
    case Kind::kNot:
      return "not (" + pl_->ToString() + ")";
  }
  return "<corrupt>";
}

}  // namespace pfql
