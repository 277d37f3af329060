#include "prob/ctable.h"

#include <algorithm>

namespace pfql {

Status RandomVariable::Validate() const {
  if (name.empty()) return Status::InvalidArgument("empty variable name");
  if (domain.empty()) {
    return Status::InvalidArgument("variable '" + name + "' has empty domain");
  }
  BigRational total;
  for (const auto& [value, p] : domain) {
    if (p.IsNegative() || p.IsZero()) {
      return Status::InvalidArgument("variable '" + name +
                                     "' has non-positive probability " +
                                     p.ToString());
    }
    total += p;
  }
  if (!total.IsOne()) {
    return Status::InvalidArgument("variable '" + name +
                                   "' probabilities sum to " +
                                   total.ToString() + " != 1");
  }
  for (size_t i = 0; i < domain.size(); ++i) {
    for (size_t j = i + 1; j < domain.size(); ++j) {
      if (domain[i].first == domain[j].first) {
        return Status::InvalidArgument("variable '" + name +
                                       "' has duplicate domain value " +
                                       domain[i].first.ToString());
      }
    }
  }
  return Status::OK();
}

std::shared_ptr<Condition> Condition::True() {
  return std::make_shared<Condition>();
}

std::shared_ptr<Condition> Condition::Eq(std::string var, Value v) {
  auto c = std::make_shared<Condition>();
  c->kind_ = Kind::kEq;
  c->var_ = std::move(var);
  c->value_ = std::move(v);
  return c;
}

std::shared_ptr<Condition> Condition::Ne(std::string var, Value v) {
  auto c = std::make_shared<Condition>();
  c->kind_ = Kind::kNe;
  c->var_ = std::move(var);
  c->value_ = std::move(v);
  return c;
}

std::shared_ptr<Condition> Condition::And(std::shared_ptr<Condition> l,
                                          std::shared_ptr<Condition> r) {
  auto c = std::make_shared<Condition>();
  c->kind_ = Kind::kAnd;
  c->lhs_ = std::move(l);
  c->rhs_ = std::move(r);
  return c;
}

std::shared_ptr<Condition> Condition::Or(std::shared_ptr<Condition> l,
                                         std::shared_ptr<Condition> r) {
  auto c = std::make_shared<Condition>();
  c->kind_ = Kind::kOr;
  c->lhs_ = std::move(l);
  c->rhs_ = std::move(r);
  return c;
}

std::shared_ptr<Condition> Condition::Not(std::shared_ptr<Condition> inner) {
  auto c = std::make_shared<Condition>();
  c->kind_ = Kind::kNot;
  c->lhs_ = std::move(inner);
  return c;
}

StatusOr<bool> Condition::Eval(const Valuation& valuation) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kEq:
    case Kind::kNe: {
      auto it = valuation.find(var_);
      if (it == valuation.end()) {
        return Status::NotFound("variable '" + var_ +
                                "' unassigned in valuation");
      }
      bool eq = it->second == value_;
      return kind_ == Kind::kEq ? eq : !eq;
    }
    case Kind::kAnd: {
      PFQL_ASSIGN_OR_RETURN(bool a, lhs_->Eval(valuation));
      if (!a) return false;
      return rhs_->Eval(valuation);
    }
    case Kind::kOr: {
      PFQL_ASSIGN_OR_RETURN(bool a, lhs_->Eval(valuation));
      if (a) return true;
      return rhs_->Eval(valuation);
    }
    case Kind::kNot: {
      PFQL_ASSIGN_OR_RETURN(bool a, lhs_->Eval(valuation));
      return !a;
    }
  }
  return Status::Internal("corrupt Condition");
}

void Condition::CollectVariables(std::vector<std::string>* out) const {
  switch (kind_) {
    case Kind::kTrue:
      break;
    case Kind::kEq:
    case Kind::kNe:
      out->push_back(var_);
      break;
    case Kind::kAnd:
    case Kind::kOr:
      lhs_->CollectVariables(out);
      rhs_->CollectVariables(out);
      break;
    case Kind::kNot:
      lhs_->CollectVariables(out);
      break;
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

Status PCDatabase::AddVariable(RandomVariable var) {
  PFQL_RETURN_NOT_OK(var.Validate());
  if (variables_.count(var.name)) {
    return Status::AlreadyExists("variable '" + var.name + "' already added");
  }
  std::string name = var.name;
  variables_.emplace(std::move(name), std::move(var));
  return Status::OK();
}

Status PCDatabase::AddBooleanVariable(const std::string& name,
                                      BigRational p_true) {
  RandomVariable var;
  var.name = name;
  BigRational p_false = BigRational(1) - p_true;
  var.domain = {{Value(int64_t{1}), std::move(p_true)},
                {Value(int64_t{0}), std::move(p_false)}};
  return AddVariable(std::move(var));
}

Status PCDatabase::AddTable(const std::string& relation_name, CTable table) {
  if (tables_.count(relation_name)) {
    return Status::AlreadyExists("pc-table '" + relation_name +
                                 "' already added");
  }
  PFQL_RETURN_NOT_OK(table.schema.Validate());
  for (const auto& row : table.rows) {
    if (row.tuple.size() != table.schema.size()) {
      return Status::TypeError("pc-table tuple arity mismatch in '" +
                               relation_name + "'");
    }
    if (row.condition == nullptr) {
      return Status::InvalidArgument("null condition in pc-table '" +
                                     relation_name + "'");
    }
    std::vector<std::string> vars;
    row.condition->CollectVariables(&vars);
    for (const auto& v : vars) {
      if (!variables_.count(v)) {
        return Status::NotFound("condition references unknown variable '" +
                                v + "'");
      }
    }
  }
  tables_.emplace(relation_name, std::move(table));
  return Status::OK();
}

StatusOr<Instance> PCDatabase::InstanceFor(const Valuation& valuation) const {
  Instance instance;
  for (const auto& [name, table] : tables_) {
    RelationBuilder rel(table.schema);
    rel.Reserve(table.rows.size());
    for (const auto& row : table.rows) {
      PFQL_ASSIGN_OR_RETURN(bool holds, row.condition->Eval(valuation));
      if (holds) rel.Add(row.tuple);
    }
    PFQL_ASSIGN_OR_RETURN(Relation sealed, rel.Seal());
    instance.Set(name, std::move(sealed));
  }
  return instance;
}

Valuation PCDatabase::SampleValuation(Rng* rng) const {
  Valuation valuation;
  for (const auto& [name, var] : variables_) {
    std::vector<double> weights;
    weights.reserve(var.domain.size());
    for (const auto& [_, p] : var.domain) weights.push_back(p.ToDouble());
    size_t pick = rng->NextWeighted(weights);
    if (pick == weights.size()) pick = 0;  // degenerate rounding; validated >0
    valuation[name] = var.domain[pick].first;
  }
  return valuation;
}

StatusOr<Instance> PCDatabase::SampleWorld(Rng* rng) const {
  return InstanceFor(SampleValuation(rng));
}

}  // namespace pfql
