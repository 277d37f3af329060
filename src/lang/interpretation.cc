#include "lang/interpretation.h"

namespace pfql {

StatusOr<std::shared_ptr<const CompiledKernel>> Interpretation::Compile(
    const Instance& initial) const {
  const std::map<std::string, Schema> schemas = initial.Schemas();
  auto kernel = std::make_shared<CompiledKernel>();
  for (const auto& [name, query] : queries_) {
    PFQL_ASSIGN_OR_RETURN(RaPlan plan, RaPlan::Compile(query, schemas));
    const Relation* current = initial.Find(name);
    if (current != nullptr && plan.schema() != current->schema()) {
      return Status::InvalidArgument(
          "the query for relation '" + name + "' outputs schema " +
          plan.schema().ToString() + ", but '" + name + "' has schema " +
          current->schema().ToString() +
          " in the initial instance; a relation must keep its schema from "
          "step to step");
    }
    kernel->plans_.emplace_back(name, std::move(plan));
  }
  return std::shared_ptr<const CompiledKernel>(std::move(kernel));
}

Status CompiledKernel::Step(Instance* state, Rng* rng) const {
  // Every query reads the old state before any relation is replaced.
  std::vector<Relation> results;
  results.reserve(plans_.size());
  for (const auto& [name, plan] : plans_) {
    PFQL_ASSIGN_OR_RETURN(Relation result, plan.Sample(*state, rng));
    results.push_back(std::move(result));
  }
  for (size_t i = 0; i < plans_.size(); ++i) {
    state->Set(plans_[i].first, std::move(results[i]));
  }
  return Status::OK();
}

StatusOr<Distribution<Instance>> CompiledKernel::Exact(
    const Instance& instance, const ExactEvalOptions& options) const {
  // Each query's outcomes, in name order, with the world count checked as
  // each one joins the product. Every outcome is wrapped once: the
  // successors that pick it share it, and so do the states interned from
  // them.
  using Outcomes = std::vector<std::pair<Instance::RelationPtr, BigRational>>;
  std::vector<Outcomes> results;
  results.reserve(plans_.size());
  size_t worlds = 1;
  for (const auto& [name, plan] : plans_) {
    PFQL_ASSIGN_OR_RETURN(Distribution<Relation> result,
                          plan.Exact(instance, options));
    if (worlds * result.size() > options.max_worlds) {
      return Status::ResourceExhausted(
          "interpretation step exceeds max_worlds = " +
          std::to_string(options.max_worlds));
    }
    worlds *= result.size();
    Outcomes& outcomes = results.emplace_back();
    outcomes.reserve(result.size());
    for (auto& outcome : result.MutableOutcomes()) {
      outcomes.emplace_back(
          std::make_shared<Relation>(std::move(outcome.value)),
          std::move(outcome.probability));
    }
  }
  // Successors share the relations no query defines and differ in the
  // defined ones, compared in name order. So an odometer over the sorted
  // outcome lists, first query outermost, visits them in Instance order,
  // each once: the distribution comes out normalized.
  Distribution<Instance> out;
  std::vector<size_t> pick(results.size(), 0);
  for (;;) {
    Instance next = instance;
    BigRational p(1);
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& [relation, probability] = results[i][pick[i]];
      next.Set(plans_[i].first, relation);
      p *= probability;
    }
    out.Add(std::move(next), std::move(p));
    size_t i = results.size();
    while (i > 0 && ++pick[i - 1] == results[i - 1].size()) pick[--i] = 0;
    if (i == 0) break;
  }
  return out;
}

std::string Interpretation::ToString() const {
  std::string out;
  for (const auto& [name, query] : queries_) {
    out += name + " := " + query->ToString() + "\n";
  }
  return out;
}

}  // namespace pfql
