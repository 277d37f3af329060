#include "lang/event.h"

#include "ra/plan.h"

namespace pfql {

EventExpr::Ptr EventExpr::TupleIn(std::string relation, Tuple tuple) {
  auto e = std::make_shared<EventExpr>();
  e->kind_ = Kind::kTupleIn;
  e->relation_ = std::move(relation);
  e->tuple_ = std::move(tuple);
  return e;
}

StatusOr<EventExpr::Ptr> EventExpr::NonEmpty(RaExpr::Ptr query) {
  if (query == nullptr) return Status::InvalidArgument("null event query");
  if (query->IsProbabilistic()) {
    return Status::InvalidArgument(
        "query events must be deterministic (no repair-key): " +
        query->ToString());
  }
  auto e = std::make_shared<EventExpr>();
  e->kind_ = Kind::kNonEmpty;
  e->query_ = std::move(query);
  return Ptr(e);
}

EventExpr::Ptr EventExpr::And(Ptr l, Ptr r) {
  auto e = std::make_shared<EventExpr>();
  e->kind_ = Kind::kAnd;
  e->lhs_ = std::move(l);
  e->rhs_ = std::move(r);
  return e;
}

EventExpr::Ptr EventExpr::Or(Ptr l, Ptr r) {
  auto e = std::make_shared<EventExpr>();
  e->kind_ = Kind::kOr;
  e->lhs_ = std::move(l);
  e->rhs_ = std::move(r);
  return e;
}

EventExpr::Ptr EventExpr::Not(Ptr inner) {
  auto e = std::make_shared<EventExpr>();
  e->kind_ = Kind::kNot;
  e->lhs_ = std::move(inner);
  return e;
}

StatusOr<bool> EventExpr::Holds(const Instance& instance) const {
  switch (kind_) {
    case Kind::kTupleIn: {
      const Relation* rel = instance.Find(relation_);
      return rel != nullptr && rel->Contains(tuple_);
    }
    case Kind::kNonEmpty: {
      // Compiled against the instance it checks; deterministic by
      // construction, so it draws nothing.
      PFQL_ASSIGN_OR_RETURN(RaPlan plan,
                            RaPlan::Compile(query_, instance.Schemas()));
      PFQL_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                            plan.SampleRows(instance, nullptr));
      return !rows.empty();
    }
    case Kind::kAnd: {
      PFQL_ASSIGN_OR_RETURN(bool a, lhs_->Holds(instance));
      if (!a) return false;
      return rhs_->Holds(instance);
    }
    case Kind::kOr: {
      PFQL_ASSIGN_OR_RETURN(bool a, lhs_->Holds(instance));
      if (a) return true;
      return rhs_->Holds(instance);
    }
    case Kind::kNot: {
      PFQL_ASSIGN_OR_RETURN(bool a, lhs_->Holds(instance));
      return !a;
    }
  }
  return Status::Internal("corrupt EventExpr");
}

std::string EventExpr::ToString() const {
  switch (kind_) {
    case Kind::kTupleIn:
      return tuple_.ToString() + " in " + relation_;
    case Kind::kNonEmpty:
      return "nonempty(" + query_->ToString() + ")";
    case Kind::kAnd:
      return "(" + lhs_->ToString() + " and " + rhs_->ToString() + ")";
    case Kind::kOr:
      return "(" + lhs_->ToString() + " or " + rhs_->ToString() + ")";
    case Kind::kNot:
      return "not (" + lhs_->ToString() + ")";
  }
  return "<corrupt>";
}

}  // namespace pfql
