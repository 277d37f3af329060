#include "eval/partition.h"

#include <map>

#include "datalog/provenance.h"
#include "datalog/translate.h"

namespace pfql {
namespace eval {

namespace {

// Union-find over base tuple ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

void UnionAll(const std::set<size_t>& ids, UnionFind* uf) {
  if (ids.size() < 2) return;
  auto it = ids.begin();
  const size_t first = *it;
  for (++it; it != ids.end(); ++it) uf->Union(first, *it);
}

}  // namespace

StatusOr<Partition> ComputePartition(const datalog::Program& program,
                                     const Instance& edb) {
  PFQL_ASSIGN_OR_RETURN(datalog::ProvenanceDatabase prov,
                        datalog::ComputeProvenance(program, edb));

  // Connected components over: (a) co-occurrence of base tuples in some
  // derivation's lineage, (b) competition in a repair-key choice group.
  UnionFind uf(prov.base.size());
  for (const auto& [_, ids] : prov.lineage) UnionAll(ids, &uf);
  for (const auto& ids : prov.choice_groups) UnionAll(ids, &uf);

  std::map<size_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < prov.base.size(); ++i) {
    groups[uf.Find(i)].push_back(i);
  }

  Partition partition;
  for (const auto& [_, members] : groups) {
    std::map<std::string, std::vector<Tuple>> per_relation;
    for (size_t id : members) {
      const auto& [relation, tuple] = prov.base[id];
      per_relation[relation].push_back(tuple);
    }
    Instance cls;
    for (const auto& pred : program.edb_predicates()) {
      const Relation* rel = edb.Find(pred);
      if (rel == nullptr) {
        return Status::NotFound("relation '" + pred + "' not in instance");
      }
      PFQL_ASSIGN_OR_RETURN(
          Relation part,
          Relation::Make(rel->schema(), std::move(per_relation[pred])));
      cls.Set(pred, std::move(part));
    }
    partition.classes.push_back(std::move(cls));
    partition.class_sizes.push_back(members.size());
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
