#include "eval/partition.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "datalog/body_eval.h"
#include "datalog/translate.h"
#include "ra/optimizer.h"
#include "ra/plan.h"

namespace pfql {
namespace eval {

namespace {

// Union-find over fact ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

// A rule compiled for the classical fixpoint: its valuation rows, and where
// its head, each body fact and its repair-key key sit in a row.
struct FactRule {
  RaPlan valuations;
  datalog::HeadLayout head;
  std::vector<datalog::HeadLayout> atoms;  // parallel to the body
  std::optional<datalog::HeadLayout> key;  // probabilistic rules only
};

// Compiles `rule` with each constant of a body atom, and each repeated
// variable within one atom, replaced by a fresh variable "#a.i" (atom a,
// position i; no variable token spells '#') tied to what it replaced by a
// leading == builtin, which the optimizer pushes into the atom's scan. The
// engine compares those positions by CmpHolds (a(X, X) matches (1, 1.0)),
// so only the rewrite lets a valuation row hold the very fact each atom
// matched. Atoms still join on a shared variable by identity, as before.
StatusOr<FactRule> CompileFactRule(
    const datalog::Rule& rule, const std::map<std::string, Schema>& schemas) {
  datalog::Rule facts = rule;
  facts.builtins.clear();
  for (size_t a = 0; a < facts.body.size(); ++a) {
    std::set<std::string> seen;
    for (size_t i = 0; i < facts.body[a].terms.size(); ++i) {
      datalog::Term& term = facts.body[a].terms[i];
      if (term.IsVar() && seen.insert(term.var).second) continue;
      datalog::Term fresh = datalog::Term::Var("#" + std::to_string(a) + "." +
                                               std::to_string(i));
      facts.builtins.push_back({CmpOp::kEq, fresh, term, term.span});
      term = std::move(fresh);
    }
  }
  facts.builtins.insert(facts.builtins.end(), rule.builtins.begin(),
                        rule.builtins.end());
  PFQL_ASSIGN_OR_RETURN(RaExpr::Ptr body,
                        datalog::CompileBody(facts, schemas));
  FactRule out;
  PFQL_ASSIGN_OR_RETURN(out.valuations,
                        RaPlan::Compile(Optimize(body, schemas), schemas));
  const Schema& row = out.valuations.schema();
  PFQL_ASSIGN_OR_RETURN(out.head,
                        datalog::HeadLayout::Resolve(rule.head.terms, row));
  for (const datalog::Atom& atom : facts.body) {
    PFQL_ASSIGN_OR_RETURN(out.atoms.emplace_back(),
                          datalog::HeadLayout::Resolve(atom.terms, row));
  }
  if (rule.head.IsProbabilistic()) {
    std::vector<datalog::Term> key;
    for (const std::string& var : rule.KeyVariables()) {
      key.push_back(datalog::Term::Var(var));
    }
    PFQL_ASSIGN_OR_RETURN(out.key, datalog::HeadLayout::Resolve(key, row));
  }
  return out;
}

}  // namespace

StatusOr<Partition> ComputePartition(const datalog::Program& program,
                                     const Instance& edb) {
  PFQL_ASSIGN_OR_RETURN(Instance db, program.InitialInstance(edb));
  const std::vector<datalog::Rule>& rules = program.rules();
  const std::map<std::string, Schema> schemas = db.Schemas();
  std::vector<FactRule> compiled;
  for (const datalog::Rule& rule : rules) {
    PFQL_ASSIGN_OR_RETURN(compiled.emplace_back(),
                          CompileFactRule(rule, schemas));
  }

  // The classical fixpoint: every valuation of every rule fires, until a
  // round adds no fact. The last round's rows are then every valuation.
  std::vector<std::vector<Tuple>> rows(rules.size());
  for (bool grew = true; grew;) {
    grew = false;
    std::map<std::string, std::vector<Tuple>> heads;
    for (size_t r = 0; r < rules.size(); ++r) {
      PFQL_ASSIGN_OR_RETURN(rows[r],
                            compiled[r].valuations.SampleRows(db, nullptr));
      std::vector<Tuple>& staged = heads[rules[r].head.predicate];
      for (const Tuple& row : rows[r]) {
        staged.push_back(compiled[r].head.Build(row));
      }
    }
    for (auto& [pred, tuples] : heads) {
      Relation grown = *db.Find(pred);
      if (grown.InsertAll(std::move(tuples)) == 0) continue;
      db.Set(pred, std::move(grown));
      grew = true;
    }
  }

  // Every fact of the fixpoint is a node, the EDB tuples first. Each
  // valuation ties its body facts to its head, and each repair-key group,
  // keyed by (rule, key values), ties its members' heads.
  std::map<std::string, size_t> first_id;
  size_t num_facts = 0;
  for (const auto* preds :
       {&program.edb_predicates(), &program.idb_predicates()}) {
    for (const auto& pred : *preds) {
      first_id[pred] = num_facts;
      num_facts += db.Find(pred)->size();
    }
  }
  auto id_of = [&](const std::string& pred, const Tuple& fact) {
    const std::vector<Tuple>& tuples = db.Find(pred)->tuples();
    return first_id.at(pred) +
           static_cast<size_t>(
               std::lower_bound(tuples.begin(), tuples.end(), fact) -
               tuples.begin());
  };
  UnionFind uf(num_facts);
  for (size_t r = 0; r < rules.size(); ++r) {
    std::map<Tuple, size_t> groups;  // key values -> a member's head
    for (const Tuple& row : rows[r]) {
      const size_t head =
          id_of(rules[r].head.predicate, compiled[r].head.Build(row));
      for (size_t a = 0; a < rules[r].body.size(); ++a) {
        uf.Union(id_of(rules[r].body[a].predicate,
                       compiled[r].atoms[a].Build(row)),
                 head);
      }
      if (compiled[r].key) {
        auto [it, inserted] = groups.emplace(compiled[r].key->Build(row), head);
        if (!inserted) uf.Union(it->second, head);
      }
    }
  }
  // A fact a body-less rule states holds in every class, so splitting
  // would count it once per class: such a program is one class.
  if (std::any_of(rules.begin(), rules.end(),
                  [](const datalog::Rule& r) { return r.body.empty(); })) {
    for (size_t id = 1; id < num_facts; ++id) uf.Union(id, 0);
  }

  // One class per component, in the order of its first EDB tuple; an input
  // with no EDB tuple is one (empty) class.
  std::map<size_t, size_t> class_of_root;
  std::vector<std::map<std::string, std::vector<Tuple>>> members;
  Partition partition;
  for (const auto& pred : program.edb_predicates()) {
    const std::vector<Tuple>& tuples = db.Find(pred)->tuples();
    for (size_t i = 0; i < tuples.size(); ++i) {
      auto [it, inserted] = class_of_root.emplace(
          uf.Find(first_id[pred] + i), members.size());
      if (inserted) {
        members.emplace_back();
        partition.class_sizes.push_back(0);
      }
      members[it->second][pred].push_back(tuples[i]);
      ++partition.class_sizes[it->second];
    }
  }
  if (members.empty()) {
    members.emplace_back();
    partition.class_sizes.push_back(0);
  }
  for (auto& keep : members) {
    Instance& cls = partition.classes.emplace_back();
    for (const auto& pred : program.edb_predicates()) {
      PFQL_ASSIGN_OR_RETURN(
          Relation part,
          Relation::Make(db.Find(pred)->schema(), std::move(keep[pred])));
      cls.Set(pred, std::move(part));
    }
  }
  return partition;
}

StatusOr<PartitionedResult> PartitionedExactForever(
    const datalog::Program& program, const Instance& edb,
    const QueryEvent& event, const StateSpaceOptions& options) {
  PFQL_ASSIGN_OR_RETURN(Partition partition, ComputePartition(program, edb));
  PartitionedResult result;
  result.num_classes = partition.classes.size();
  BigRational p_none(1);  // probability the event holds in no class
  for (const auto& cls : partition.classes) {
    PFQL_ASSIGN_OR_RETURN(datalog::TranslatedQuery tq,
                          datalog::TranslateNonInflationary(program, cls));
    ForeverQuery query{tq.kernel, event};
    PFQL_ASSIGN_OR_RETURN(ExactForeverResult r,
                          ExactForever(query, tq.initial, options));
    result.states_per_class.push_back(r.num_states);
    p_none *= BigRational(1) - r.probability;
  }
  result.probability = BigRational(1) - p_none;
  return result;
}

}  // namespace eval
}  // namespace pfql
