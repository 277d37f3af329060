#include "datalog/engine.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>

#include "datalog/body_eval.h"
#include "ra/optimizer.h"
#include "ra/plan.h"

namespace pfql {
namespace datalog {

namespace {

// The last step's additions to IDB predicate p live in the working instance
// as the relation "__delta_p", where the compiled delta variants read them
// by name. No instance handed to a caller holds one.
constexpr char kDeltaPrefix[] = "__delta_";

bool IsDeltaName(const std::string& name) {
  return name.rfind(kDeltaPrefix, 0) == 0;
}

// The state as callers see it: `db` without its delta relations, sharing
// the rest.
Instance WithoutDeltas(const Instance& db) {
  Instance out;
  for (const auto& [name, rel] : db.relations()) {
    if (!IsDeltaName(name)) out.Set(name, rel);
  }
  return out;
}

}  // namespace

class CompiledProgram {
 public:
  // One step's head tuples, each tagged with its predicate's index in idb_.
  using Heads = std::vector<std::pair<size_t, Tuple>>;

  static StatusOr<CompiledProgram> Make(Program program, const Instance& edb);

  const Instance& initial() const { return initial_; }

  // True iff `relation` is the head of some rule.
  bool Writes(const std::string& relation) const {
    return program_.idb_predicates().count(relation) > 0;
  }

  // Program::InitialInstance(edb), provided `edb` has the schemas the rules
  // were compiled against.
  StatusOr<Instance> InitialInstance(const Instance& edb) const;

  // Sec 3.3's newVals[r] of every rule r on `db`, projected onto the head's
  // columns π_{X̄,Ȳ,P}: the rows rule r fires with (sorted and distinct;
  // empty if it does not fire). The first step evaluates the full bodies.
  // Later steps take the union of each rule's delta variants over the
  // "__delta_" relations in `db`.
  StatusOr<std::vector<std::vector<Tuple>>> NewValuations(
      const Instance& db, bool first_step) const;

  // Rule r's repair-key choice over its rows, or null if the rule is
  // deterministic.
  const RepairKeyColumns* Choice(size_t r) const {
    return rules_[r].choice ? &*rules_[r].choice : nullptr;
  }

  // Stages the head tuple of rule r for one of its rows.
  void AddHead(size_t r, const Tuple& row, Heads* heads) const {
    heads->emplace_back(rules_[r].head, rules_[r].head_layout.Build(row));
  }

  // Replaces each IDB relation of `db` that a step's head tuples grow, and
  // each delta relation with the tuples that were not there yet. `db` may
  // share its relations (with a parent node or the initial instance), so
  // nothing is written into them.
  Status Apply(const Heads& heads, Instance* db) const;

 private:
  struct IdbRelation {
    std::string name;
    std::string delta;  // kDeltaPrefix + name
    Schema schema;
  };
  // Every plan ends in the projection onto π_{X̄,Ȳ,P}, and the choice and
  // head positions index its rows.
  struct CompiledRule {
    RaPlan body;  // the first step
    // One variant per IDB body atom, reading that atom from its delta
    // relation: every later step.
    std::vector<std::pair<std::string, RaPlan>> deltas;
    std::optional<RepairKeyColumns> choice;
    HeadLayout head_layout;
    size_t head = 0;  // index in idb_
  };

  Program program_;
  Instance initial_;
  std::vector<IdbRelation> idb_;
  std::vector<CompiledRule> rules_;  // parallel to program_.rules()
};

StatusOr<CompiledProgram> CompiledProgram::Make(Program program,
                                                const Instance& edb) {
  for (const auto& [pred, _] : program.arities()) {
    if (IsDeltaName(pred)) {
      return Status::InvalidArgument(
          "predicate '" + pred + "' uses the prefix '" + kDeltaPrefix +
          "', which is reserved for the engine's delta relations");
    }
  }
  CompiledProgram cp;
  PFQL_ASSIGN_OR_RETURN(cp.initial_, program.InitialInstance(edb));
  std::map<std::string, Schema> schemas = cp.initial_.Schemas();
  std::map<std::string, size_t> idb_index;
  for (const std::string& pred : program.idb_predicates()) {
    idb_index.emplace(pred, cp.idb_.size());
    cp.idb_.push_back(
        {pred, kDeltaPrefix + pred, program.CanonicalSchema(pred)});
    schemas.emplace(cp.idb_.back().delta, cp.idb_.back().schema);
  }
  // A body (or delta variant) with π_{X̄,Ȳ,P} folded into its plan.
  auto compile_rows = [&](const Rule& rule) -> StatusOr<RaPlan> {
    PFQL_ASSIGN_OR_RETURN(RaExpr::Ptr body, CompileBody(rule, schemas));
    return RaPlan::Compile(
        RaExpr::Project(Optimize(body, schemas), rule.ProjectionColumns()),
        schemas);
  };
  for (const Rule& rule : program.rules()) {
    CompiledRule compiled;
    PFQL_ASSIGN_OR_RETURN(compiled.body, compile_rows(rule));
    for (size_t a = 0; a < rule.body.size(); ++a) {
      auto idb = idb_index.find(rule.body[a].predicate);
      if (idb == idb_index.end()) continue;
      Rule variant = rule;
      variant.body[a].predicate = cp.idb_[idb->second].delta;
      PFQL_ASSIGN_OR_RETURN(RaPlan delta_rows, compile_rows(variant));
      compiled.deltas.emplace_back(cp.idb_[idb->second].delta,
                                   std::move(delta_rows));
    }
    const Schema& row_schema = compiled.body.schema();
    if (rule.head.IsProbabilistic()) {
      PFQL_ASSIGN_OR_RETURN(
          compiled.choice,
          ResolveRepairKey(row_schema, RepairKeySpec{rule.KeyVariables(),
                                                     rule.head.weight_var}));
    }
    PFQL_ASSIGN_OR_RETURN(compiled.head_layout,
                          HeadLayout::Resolve(rule.head.terms, row_schema));
    compiled.head = idb_index.at(rule.head.predicate);
    cp.rules_.push_back(std::move(compiled));
  }
  cp.program_ = std::move(program);
  return cp;
}

StatusOr<Instance> CompiledProgram::InitialInstance(
    const Instance& edb) const {
  PFQL_ASSIGN_OR_RETURN(Instance initial, program_.InitialInstance(edb));
  for (const auto& [name, rel] : initial.relations()) {
    const Schema& compiled = initial_.Find(name)->schema();
    if (!(rel->schema() == compiled)) {
      return Status::InvalidArgument(
          "relation '" + name + "' has schema " + rel->schema().ToString() +
          ", but the program was compiled for " + compiled.ToString());
    }
  }
  return initial;
}

StatusOr<std::vector<std::vector<Tuple>>> CompiledProgram::NewValuations(
    const Instance& db, bool first_step) const {
  std::vector<std::vector<Tuple>> out;
  out.reserve(rules_.size());
  for (const CompiledRule& rule : rules_) {
    std::vector<Tuple> rows;
    if (first_step) {
      PFQL_ASSIGN_OR_RETURN(rows, rule.body.SampleRows(db, nullptr));
    } else {
      for (const auto& [delta, variant] : rule.deltas) {
        const Relation* added = db.Find(delta);
        if (added == nullptr || added->empty()) continue;
        PFQL_ASSIGN_OR_RETURN(std::vector<Tuple> part,
                              variant.SampleRows(db, nullptr));
        if (rows.empty()) {
          rows = std::move(part);
          continue;
        }
        std::vector<Tuple> merged;
        merged.reserve(rows.size() + part.size());
        std::set_union(rows.begin(), rows.end(), part.begin(), part.end(),
                       std::back_inserter(merged));
        rows = std::move(merged);
      }
    }
    out.push_back(std::move(rows));
  }
  return out;
}

Status CompiledProgram::Apply(const Heads& heads, Instance* db) const {
  std::vector<std::vector<Tuple>> staged(idb_.size());
  for (const auto& [idb, tuple] : heads) staged[idb].push_back(tuple);
  for (size_t i = 0; i < idb_.size(); ++i) {
    const Relation* rel = db->Find(idb_[i].name);
    if (rel == nullptr) {
      return Status::Internal("head relation '" + idb_[i].name +
                              "' missing from instance");
    }
    std::vector<Tuple> fresh;
    for (Tuple& tuple : staged[i]) {
      if (!rel->Contains(tuple)) fresh.push_back(std::move(tuple));
    }
    Relation added(idb_[i].schema);
    added.InsertAll(std::move(fresh));
    if (!added.empty()) {  // else the relation keeps its pointer
      PFQL_ASSIGN_OR_RETURN(Relation grown, rel->UnionWith(added));
      db->Set(idb_[i].name, std::move(grown));
    }
    db->Set(idb_[i].delta, std::move(added));
  }
  return Status::OK();
}

StatusOr<InflationaryEngine> InflationaryEngine::Make(Program program,
                                                      const Instance& edb) {
  PFQL_ASSIGN_OR_RETURN(CompiledProgram compiled,
                        CompiledProgram::Make(std::move(program), edb));
  InflationaryEngine engine;
  engine.program_ =
      std::make_shared<const CompiledProgram>(std::move(compiled));
  engine.Restart();
  return engine;
}

void InflationaryEngine::Restart() {
  db_ = program_->initial();  // shares the initial relations
  steps_ = 0;
}

Status InflationaryEngine::Restart(const Instance& edb) {
  PFQL_ASSIGN_OR_RETURN(db_, program_->InitialInstance(edb));
  steps_ = 0;
  return Status::OK();
}

Instance InflationaryEngine::database() const { return WithoutDeltas(db_); }

StatusOr<bool> InflationaryEngine::SampleStep(Rng* rng) {
  PFQL_ASSIGN_OR_RETURN(std::vector<std::vector<Tuple>> rows,
                        program_->NewValuations(db_, steps_ == 0));
  CompiledProgram::Heads heads;
  bool fired = false;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].empty()) continue;
    fired = true;
    if (const RepairKeyColumns* choice = program_->Choice(r)) {
      PFQL_ASSIGN_OR_RETURN(rows[r], RepairKeySample(rows[r], *choice, rng));
    }
    for (const Tuple& row : rows[r]) program_->AddHead(r, row, &heads);
  }
  if (!fired) return false;
  PFQL_RETURN_NOT_OK(program_->Apply(heads, &db_));
  ++steps_;
  return true;
}

StatusOr<Instance> InflationaryEngine::RunToFixpoint(Rng* rng,
                                                     size_t max_steps) {
  for (size_t i = 0; i < max_steps; ++i) {
    PFQL_ASSIGN_OR_RETURN(bool fired, SampleStep(rng));
    if (!fired) return database();
  }
  return Status::ResourceExhausted("no fixpoint within " +
                                   std::to_string(max_steps) + " steps");
}

namespace {

// Depth-first search of the computation tree (Prop 4.4). Choice points (one
// per repair-key group per fired rule) are iterated lazily so memory stays
// proportional to tree depth. Without an event it reaches every fixpoint
// and hands each to `on_fixpoint`. With one it settles at the event (see
// Visit), and settled() is the probability that the event holds at the
// fixpoint.
class ExactTraversal {
 public:
  ExactTraversal(const CompiledProgram& program,
                 const ExactInflationaryOptions& options,
                 const QueryEvent* event,
                 std::function<Status(const Instance&, const BigRational&)>
                     on_fixpoint)
      : program_(program),
        options_(options),
        event_(event),
        event_written_(event != nullptr && program.Writes(event->relation)),
        on_fixpoint_(std::move(on_fixpoint)),
        poller_(options.cancel) {}

  Status Run() {
    return Visit(program_.initial(), BigRational(1), /*first_step=*/true);
  }

  size_t nodes_visited() const { return nodes_; }
  const BigRational& settled() const { return settled_; }

 private:
  // One probabilistic choice point within a step.
  struct ChoicePoint {
    size_t rule;
    RepairKeyGroup group;
  };

  Status Visit(Instance db, BigRational prob, bool first_step) {
    if (++nodes_ > options_.max_nodes) {
      return Status::ResourceExhausted(
          "exact evaluation exceeded max_nodes = " +
          std::to_string(options_.max_nodes) + " (visited " +
          std::to_string(nodes_) + " nodes)");
    }
    PFQL_RETURN_NOT_OK(poller_.Tick());
    if (event_ != nullptr) {
      // The instance only grows and the event is monotone, so once it holds
      // it holds at every fixpoint below, whose probabilities sum to this
      // node's. A written relation is never a "__delta_" one, so `db`
      // answers as its fixpoint would (docs/INTERNALS.md §9).
      const bool holds = event_->Holds(db);
      if (holds) settled_ += prob;
      if (holds || !event_written_) return Status::OK();
    }
    PFQL_ASSIGN_OR_RETURN(std::vector<std::vector<Tuple>> rows,
                          program_.NewValuations(db, first_step));

    // Deterministic rules stage their heads; each repair-key group of a
    // probabilistic rule becomes a choice point.
    CompiledProgram::Heads heads;
    std::vector<ChoicePoint> choice_points;
    bool fired = false;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].empty()) continue;
      fired = true;
      const RepairKeyColumns* choice = program_.Choice(r);
      if (choice == nullptr) {
        for (const Tuple& row : rows[r]) program_.AddHead(r, row, &heads);
        continue;
      }
      PFQL_ASSIGN_OR_RETURN(std::vector<RepairKeyGroup> groups,
                            RepairKeyGroups(rows[r], *choice));
      for (auto& g : groups) {
        choice_points.push_back({r, std::move(g)});
      }
    }
    if (!fired) {
      return on_fixpoint_ ? on_fixpoint_(WithoutDeltas(db), prob)
                          : Status::OK();
    }

    // Lazily iterate the product over choice points.
    return IterateChoices(choice_points, 0, db, &heads, std::move(prob));
  }

  Status IterateChoices(const std::vector<ChoicePoint>& points, size_t depth,
                        const Instance& db, CompiledProgram::Heads* heads,
                        BigRational prob) {
    if (depth == points.size()) {
      // Shares db's relations; Apply replaces the ones the step grows.
      Instance child = db;
      PFQL_RETURN_NOT_OK(program_.Apply(*heads, &child));
      return Visit(std::move(child), std::move(prob), /*first_step=*/false);
    }
    const ChoicePoint& point = points[depth];
    for (const auto& [binding, p] : point.group.alternatives) {
      program_.AddHead(point.rule, binding, heads);
      PFQL_RETURN_NOT_OK(
          IterateChoices(points, depth + 1, db, heads, prob * p));
      heads->pop_back();
    }
    return Status::OK();
  }

  const CompiledProgram& program_;
  const ExactInflationaryOptions& options_;
  const QueryEvent* event_;
  const bool event_written_;
  std::function<Status(const Instance&, const BigRational&)> on_fixpoint_;
  CancelPoller poller_;
  size_t nodes_ = 0;
  BigRational settled_;
};

}  // namespace

StatusOr<BigRational> ExactFixpointEventProbability(
    const Program& program, const Instance& edb, const QueryEvent& event,
    const ExactInflationaryOptions& options, size_t* nodes_visited) {
  PFQL_ASSIGN_OR_RETURN(CompiledProgram compiled,
                        CompiledProgram::Make(program, edb));
  // A fixpoint the search reaches fails the event, or it would have
  // settled above.
  ExactTraversal traversal(compiled, options, &event, nullptr);
  Status status = traversal.Run();
  if (nodes_visited != nullptr) *nodes_visited = traversal.nodes_visited();
  PFQL_RETURN_NOT_OK(status);
  return traversal.settled();
}

StatusOr<Distribution<Instance>> ExactFixpointDistribution(
    const Program& program, const Instance& edb,
    const ExactInflationaryOptions& options, size_t* nodes_visited) {
  PFQL_ASSIGN_OR_RETURN(CompiledProgram compiled,
                        CompiledProgram::Make(program, edb));
  Distribution<Instance> dist;
  ExactTraversal traversal(
      compiled, options, /*event=*/nullptr,
      [&](const Instance& fixpoint, const BigRational& p) -> Status {
        dist.Add(fixpoint, p);
        return Status::OK();
      });
  Status status = traversal.Run();
  if (nodes_visited != nullptr) *nodes_visited = traversal.nodes_visited();
  PFQL_RETURN_NOT_OK(status);
  dist.Normalize();
  return dist;
}

}  // namespace datalog
}  // namespace pfql
