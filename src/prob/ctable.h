// Probabilistic c-tables (paper Def 2.1): relations whose tuples carry
// boolean conditions over independent finite-domain random variables. A
// pc-database (a set of pc-tables sharing one variable pool) is a succinct
// representation of any finite probabilistic database: worlds are variable
// valuations; a world's instance keeps the tuples whose conditions hold.
#ifndef PFQL_PROB_CTABLE_H_
#define PFQL_PROB_CTABLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relational/instance.h"
#include "relational/relation.h"
#include "util/random.h"
#include "util/status.h"

namespace pfql {

/// An independent random variable with a finite value domain.
struct RandomVariable {
  std::string name;
  /// (value, probability) pairs; probabilities must be positive and sum to 1.
  std::vector<std::pair<Value, BigRational>> domain;

  Status Validate() const;
};

/// A valuation assigns one domain value to each random variable.
using Valuation = std::map<std::string, Value>;

/// Boolean condition over random variables: (in)equalities between a
/// variable and a constant, combined with and/or/not. `True` marks a
/// certain tuple.
class Condition {
 public:
  enum class Kind { kTrue, kEq, kNe, kAnd, kOr, kNot };

  static std::shared_ptr<Condition> True();
  /// X = v.
  static std::shared_ptr<Condition> Eq(std::string var, Value v);
  /// X != v.
  static std::shared_ptr<Condition> Ne(std::string var, Value v);
  static std::shared_ptr<Condition> And(std::shared_ptr<Condition> l,
                                        std::shared_ptr<Condition> r);
  static std::shared_ptr<Condition> Or(std::shared_ptr<Condition> l,
                                       std::shared_ptr<Condition> r);
  static std::shared_ptr<Condition> Not(std::shared_ptr<Condition> c);

  Kind kind() const { return kind_; }

  /// Truth value under a (total) valuation; error if a referenced variable
  /// is unassigned.
  StatusOr<bool> Eval(const Valuation& valuation) const;

  /// Names of all referenced variables (deduplicated).
  void CollectVariables(std::vector<std::string>* out) const;

 private:
  Kind kind_ = Kind::kTrue;
  std::string var_;
  Value value_;
  std::shared_ptr<Condition> lhs_, rhs_;
};

/// One conditioned tuple.
struct ConditionedTuple {
  Tuple tuple;
  std::shared_ptr<Condition> condition;
};

/// A single c-table: schema + conditioned tuples.
struct CTable {
  Schema schema;
  std::vector<ConditionedTuple> rows;
};

/// A probabilistic database presented as c-tables over a shared pool of
/// independent random variables.
class PCDatabase {
 public:
  /// Registers a variable; name must be fresh.
  Status AddVariable(RandomVariable var);

  /// Convenience: a Boolean variable with Pr[name=1] = p (values 1/0).
  Status AddBooleanVariable(const std::string& name, BigRational p_true);

  /// Adds a pc-table under `relation_name` (fresh).
  Status AddTable(const std::string& relation_name, CTable table);

  const std::map<std::string, RandomVariable>& variables() const {
    return variables_;
  }
  const std::map<std::string, CTable>& tables() const { return tables_; }

  /// The instance induced by one valuation.
  StatusOr<Instance> InstanceFor(const Valuation& valuation) const;

  /// Samples a valuation variable-by-variable, then builds the instance.
  StatusOr<Instance> SampleWorld(Rng* rng) const;
  /// Samples just the valuation.
  Valuation SampleValuation(Rng* rng) const;

 private:
  std::map<std::string, RandomVariable> variables_;
  std::map<std::string, CTable> tables_;
};

}  // namespace pfql

#endif  // PFQL_PROB_CTABLE_H_
