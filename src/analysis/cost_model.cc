#include "analysis/cost_model.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "analysis/analyzer.h"
#include "relational/expr.h"
#include "relational/relation.h"
#include "relational/value.h"

namespace pfql {
namespace analysis {

uint64_t CostAdd(uint64_t a, uint64_t b) {
  if (a == kCostUnbounded || b == kCostUnbounded) return kCostUnbounded;
  return a > kCostUnbounded - b ? kCostUnbounded : a + b;
}

uint64_t CostMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kCostUnbounded || b == kCostUnbounded) return kCostUnbounded;
  return a > kCostUnbounded / b ? kCostUnbounded : a * b;
}

uint64_t CostPow(uint64_t base, uint64_t exp) {
  uint64_t out = 1;
  for (uint64_t i = 0; i < exp; ++i) {
    out = CostMul(out, base);
    if (out == kCostUnbounded) break;
  }
  return out;
}

namespace {

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

int64_t ClampToInt64(uint64_t v) {
  return v > static_cast<uint64_t>(kInt64Max) ? kInt64Max
                                              : static_cast<int64_t>(v);
}

/// Number of subsets of a universe of size `u` with at most `h` elements,
/// saturating: sum_{k=0}^{min(h,u)} C(u, k). This bounds the number of
/// distinct values a relation with <= h tuples over a u-tuple universe can
/// take.
uint64_t SubsetsUpTo(uint64_t u, uint64_t h) {
  if (u == kCostUnbounded) return h == 0 ? 1 : kCostUnbounded;
  if (h >= u) return CostPow(2, u);
  uint64_t total = 1;  // the empty set
  uint64_t binom = 1;  // C(u, k), running
  for (uint64_t k = 1; k <= h; ++k) {
    // C(u,k) = C(u,k-1) * (u-k+1) / k; the product is divisible by k.
    const uint64_t factor = u - k + 1;
    if (binom > kCostUnbounded / factor) return kCostUnbounded;
    binom = binom * factor / k;
    total = CostAdd(total, binom);
    if (total == kCostUnbounded) return kCostUnbounded;
  }
  return total;
}

/// Per-predicate facts collected from the rule list.
struct PredFacts {
  std::vector<const datalog::Rule*> rules;
  bool deterministic = true;  ///< no rule for this head is probabilistic
};

/// One-step choice statistics of a "qualifying" probabilistic predicate:
/// exactly one rule, probabilistic, body = a single atom over a statically
/// known relation (an EDB relation with statistics, or a fact-only IDB
/// predicate), no builtins. Its repair-key choice is then state-independent
/// once the body relation is populated, and every combination of per-group
/// candidates is a distinct, reachable relation value — the engine of the
/// certified lower bound.
struct ChoiceStats {
  bool qualifies = false;
  /// Product over key groups of (positive-weight candidate head tuples).
  uint64_t combos = 1;
  /// True when the one-step relation value is nonempty (some key group
  /// exists), i.e. provably distinct from the empty initial value.
  bool nonempty = false;
};

/// Resolves a body predicate to its statically known relation: fact-only
/// IDB predicates materialize their facts; EDB predicates come from the
/// supplied statistics. Null = not statically known.
using StaticRelationFn =
    std::function<const Relation*(const std::string&)>;

ChoiceStats AnalyzeChoices(const datalog::Rule& rule,
                           const StaticRelationFn& static_relation) {
  ChoiceStats stats;
  if (!rule.head.IsProbabilistic()) return stats;
  if (rule.body.size() != 1 || !rule.builtins.empty()) return stats;
  const datalog::Atom& atom = rule.body[0];
  const Relation* rel = static_relation(atom.predicate);
  if (rel == nullptr) return stats;
  if (!rel->empty() && rel->schema().size() != atom.terms.size()) {
    return stats;  // arity mismatch; evaluation would fail anyway
  }

  // Group the candidate head tuples by their key columns, dropping
  // zero-weight candidates (repair-key never picks them). Any negative or
  // non-numeric weight disqualifies: evaluation would error, and the lower
  // bound must never claim states a failing run cannot reach.
  std::map<Tuple, std::set<Tuple>> groups;
  for (const Tuple& t : rel->tuples()) {
    std::map<std::string, Value> sub;
    bool match = true;
    for (size_t i = 0; i < atom.terms.size() && match; ++i) {
      const datalog::Term& term = atom.terms[i];
      if (term.IsVar()) {
        auto [it, inserted] = sub.emplace(term.var, t[i]);
        if (!inserted && !CmpHolds(CmpOp::kEq, it->second, t[i])) {
          match = false;
        }
      } else if (!CmpHolds(CmpOp::kEq, term.value, t[i])) {
        match = false;
      }
    }
    if (!match) continue;
    if (rule.head.weight_var.has_value()) {
      auto it = sub.find(*rule.head.weight_var);
      if (it == sub.end() || it->second.is_string()) return stats;
      const double w =
          it->second.is_int() ? static_cast<double>(it->second.AsInt())
                              : it->second.AsDouble();
      if (w < 0.0) return stats;
      if (w == 0.0) continue;
    }
    Tuple head_tuple, key;
    for (size_t i = 0; i < rule.head.terms.size(); ++i) {
      const datalog::Term& term = rule.head.terms[i];
      if (term.IsVar()) {
        auto it = sub.find(term.var);
        if (it == sub.end()) return stats;  // unsafe head; Make rejects it
        head_tuple.Append(it->second);
      } else {
        head_tuple.Append(term.value);
      }
      if (rule.head.is_key[i]) key.Append(head_tuple[head_tuple.size() - 1]);
    }
    groups[std::move(key)].insert(std::move(head_tuple));
  }
  for (const auto& [key, candidates] : groups) {
    if (candidates.empty()) return stats;  // all-zero-weight group: error
    stats.combos = CostMul(stats.combos, candidates.size());
  }
  stats.nonempty = !groups.empty();
  stats.qualifies = true;
  return stats;
}

}  // namespace

Json CostInterval::ToJson() const {
  Json out = Json::Object();
  out.Set("lo", ClampToInt64(lo));
  out.Set("hi", bounded() ? Json(ClampToInt64(hi)) : Json());
  out.Set("bounded", bounded());
  return out;
}

Json ChainStructure::ToJson() const {
  Json out = Json::Object();
  out.Set("deterministic_rules", deterministic_rules);
  out.Set("probabilistic_rules", probabilistic_rules);
  out.Set("state_independent_choices", state_independent_choices);
  out.Set("memoryless", memoryless);
  Json stationary = Json::Array();
  for (const auto& p : stationary_predicates) stationary.Append(p);
  out.Set("stationary_predicates", std::move(stationary));
  out.Set("reducibility_risk", reducibility_risk);
  out.Set("periodicity_risk", periodicity_risk);
  return out;
}

Json CostReport::ToJson() const {
  Json out = Json::Object();
  out.Set("has_data", has_data);
  out.Set("adom_size", adom_size == kCostUnbounded
                           ? Json()
                           : Json(ClampToInt64(adom_size)));
  Json cards = Json::Object();
  for (const auto& [pred, interval] : cardinalities) {
    cards.Set(pred, interval.ToJson());
  }
  out.Set("cardinalities", std::move(cards));
  out.Set("states", states.ToJson());
  out.Set("edges", edges.ToJson());
  out.Set("structure", structure.ToJson());
  out.Set("backend_verdict", backend_verdict);
  out.Set("recommended_sampler", recommended_sampler);
  return out;
}

CostReport AnalyzeCost(const datalog::Program& program,
                       const CostOptions& options, DiagnosticSink* sink) {
  CostReport report;
  report.has_data = options.edb != nullptr;
  const DependencyGraph graph = BuildDependencyGraph(program);
  const std::set<std::string>& idb = program.idb_predicates();
  const std::set<std::string>& edb_preds = program.edb_predicates();

  std::map<std::string, PredFacts> facts;
  for (const datalog::Rule& rule : program.rules()) {
    PredFacts& f = facts[rule.head.predicate];
    f.rules.push_back(&rule);
    if (rule.head.IsProbabilistic()) {
      f.deterministic = false;
      ++report.structure.probabilistic_rules;
    } else {
      ++report.structure.deterministic_rules;
    }
  }

  // Fact-only IDB predicates (every rule is a ground fact) have a
  // statically known post-step value: the fact set itself. Materializing
  // it lets choice rules over inline facts qualify exactly like choice
  // rules over EDB statistics, and makes `plan` useful on self-contained
  // programs with no instance at all.
  std::map<std::string, Relation> fact_relations;
  for (const auto& pred : idb) {
    const PredFacts& f = facts[pred];
    bool all_facts = !f.rules.empty();
    for (const datalog::Rule* r : f.rules) {
      if (!r->IsFact()) {
        all_facts = false;
        break;
      }
    }
    if (!all_facts) continue;
    std::vector<std::string> columns;
    for (size_t i = 0; i < program.arities().at(pred); ++i) {
      columns.push_back("c" + std::to_string(i));
    }
    Relation rel{Schema(std::move(columns))};
    for (const datalog::Rule* r : f.rules) {
      Tuple t;
      for (const datalog::Term& term : r->head.terms) {
        if (term.IsVar()) break;  // non-ground; Make rejects it anyway
        t.Append(term.value);
      }
      if (t.size() == r->head.terms.size()) rel.Insert(std::move(t));
    }
    fact_relations.emplace(pred, std::move(rel));
  }

  // ---- Active domain ---------------------------------------------------
  // No value invention: head terms are body variables or constants, and
  // body variables bind to EDB values or (recursively) IDB values, so every
  // value in any reachable state comes from the EDB or a program constant.
  // With no EDB predicates at all the program is self-contained and the
  // active domain is known even without an instance.
  std::set<Value> adom;
  const bool adom_known = report.has_data || edb_preds.empty();
  if (adom_known) {
    if (report.has_data) {
      for (const auto& pred : edb_preds) {
        const Relation* rel = options.edb->Find(pred);
        if (rel == nullptr) continue;
        for (const Tuple& t : rel->tuples()) {
          for (const Value& v : t.values()) adom.insert(v);
        }
      }
    }
    for (const datalog::Rule& rule : program.rules()) {
      for (const datalog::Term& t : rule.head.terms) {
        if (!t.IsVar()) adom.insert(t.value);
      }
      for (const datalog::Atom& atom : rule.body) {
        for (const datalog::Term& t : atom.terms) {
          if (!t.IsVar()) adom.insert(t.value);
        }
      }
    }
  }
  const uint64_t adom_size = adom_known ? adom.size() : kCostUnbounded;
  report.adom_size = adom_size;

  // ---- Cardinality intervals (monotone fixpoint, SCC-free Kleene) ------
  std::map<std::string, uint64_t> hi;
  for (const auto& pred : edb_preds) {
    if (report.has_data) {
      const Relation* rel = options.edb->Find(pred);
      const uint64_t n = rel == nullptr ? 0 : rel->size();
      report.cardinalities[pred] = {n, n};
      hi[pred] = n;
    } else {
      report.cardinalities[pred] = {0, kCostUnbounded};
      hi[pred] = kCostUnbounded;
    }
  }
  std::map<std::string, uint64_t> cap;
  for (const auto& pred : idb) {
    cap[pred] = CostPow(adom_size, program.arities().at(pred));
    hi[pred] = 0;
  }
  // Fact-only predicates are exact: per-state cardinality is 0 (initial)
  // or the fact-set size, so pin them instead of iterating.
  for (const auto& [pred, rel] : fact_relations) hi[pred] = rel.size();
  constexpr int kMaxRounds = 32;
  bool changed = true;
  for (int round = 0; round < kMaxRounds && changed; ++round) {
    changed = false;
    for (const auto& pred : idb) {
      if (fact_relations.count(pred) > 0) continue;
      uint64_t next = 0;
      for (const datalog::Rule* rule : facts[pred].rules) {
        uint64_t contrib = 1;
        for (const datalog::Atom& atom : rule->body) {
          contrib = CostMul(contrib, hi[atom.predicate]);
        }
        if (rule->head.IsProbabilistic()) {
          // Repair-key keeps one tuple per key group, and there are at
          // most prod_{key positions}(|adom|, or 1 for constants) groups.
          uint64_t key_cap = 1;
          for (size_t i = 0; i < rule->head.terms.size(); ++i) {
            if (!rule->head.is_key[i]) continue;
            key_cap = CostMul(
                key_cap, rule->head.terms[i].IsVar() ? adom_size : 1);
          }
          contrib = std::min(contrib, key_cap);
        }
        next = CostAdd(next, contrib);
      }
      next = std::min(next, cap[pred]);
      if (next != hi[pred]) {
        hi[pred] = next;
        changed = true;
      }
    }
  }
  // Still-unstable predicates (slowly climbing sums) jump to their sound
  // active-domain cap (fact-only predicates are already exact).
  if (changed) {
    for (const auto& pred : idb) {
      if (fact_relations.count(pred) == 0) hi[pred] = cap[pred];
    }
  }
  for (const auto& pred : idb) {
    report.cardinalities[pred] = {0, hi[pred]};
  }

  // ---- Chain structure -------------------------------------------------
  auto body_is_edb_only = [&](const datalog::Rule& rule) {
    for (const datalog::Atom& atom : rule.body) {
      if (idb.count(atom.predicate) > 0) return false;
    }
    return true;
  };
  report.structure.state_independent_choices = true;
  report.structure.memoryless = true;
  for (const datalog::Rule& rule : program.rules()) {
    if (!body_is_edb_only(rule)) {
      report.structure.memoryless = false;
      if (rule.head.IsProbabilistic()) {
        report.structure.state_independent_choices = false;
      }
    }
  }

  // Transitive IDB contributors of a predicate (dependency-edge closure).
  auto contributors = [&](const std::string& start) {
    std::set<std::string> seen;
    std::vector<std::string> stack{start};
    while (!stack.empty()) {
      std::string p = stack.back();
      stack.pop_back();
      if (!seen.insert(p).second) continue;
      auto it = graph.edges.find(p);
      if (it == graph.edges.end()) continue;
      for (const auto& q : it->second) {
        if (idb.count(q) > 0) stack.push_back(q);
      }
    }
    return seen;
  };

  std::map<std::string, std::set<std::string>> contribs;
  for (const auto& pred : idb) contribs[pred] = contributors(pred);

  // Stationary: deterministic rules all the way down. The deterministic
  // sub-kernel is monotone (positive bodies, builtin filters), and its
  // joint trajectory from the all-empty start is increasing, so it reaches
  // a fixpoint — those predicates are guaranteed to absorb.
  for (const auto& pred : idb) {
    bool all_det = true;
    for (const auto& q : contribs[pred]) {
      auto it = facts.find(q);
      if (it != facts.end() && !it->second.deterministic) {
        all_det = false;
        break;
      }
    }
    if (all_det) report.structure.stationary_predicates.insert(pred);
  }

  for (const datalog::Rule& rule : program.rules()) {
    const bool prob = rule.head.IsProbabilistic();
    bool sees_recursion = graph.IsRecursive(rule.head.predicate);
    for (const datalog::Atom& atom : rule.body) {
      if (sees_recursion) break;
      if (idb.count(atom.predicate) == 0) continue;
      for (const auto& q : contribs[atom.predicate]) {
        if (graph.IsRecursive(q)) {
          sees_recursion = true;
          break;
        }
      }
    }
    if (prob && sees_recursion) report.structure.reducibility_risk = true;
    if (!prob && graph.IsRecursive(rule.head.predicate) &&
        report.structure.stationary_predicates.count(rule.head.predicate) ==
            0) {
      // A deterministic recursive predicate copying re-chosen probabilistic
      // values around a cycle can oscillate with period > 1.
      report.structure.periodicity_risk = true;
    }
  }

  // ---- State-space interval --------------------------------------------
  // Upper bound: the joint reachable set embeds into the product of the
  // per-predicate reachable value sets, so |states| <= prod_p V_hi(p).
  // Every V_hi below counts the empty initial value, so the product covers
  // the initial state too.
  const StaticRelationFn static_relation =
      [&](const std::string& p) -> const Relation* {
    auto it = fact_relations.find(p);
    if (it != fact_relations.end()) return &it->second;
    if (options.edb != nullptr && edb_preds.count(p) > 0) {
      return options.edb->Find(p);
    }
    return nullptr;
  };
  std::map<std::string, ChoiceStats> choices;
  for (const auto& pred : idb) {
    const PredFacts& f = facts[pred];
    if (f.rules.size() == 1) {
      choices[pred] = AnalyzeChoices(*f.rules[0], static_relation);
    }
  }
  uint64_t states_hi = 1;
  for (const auto& pred : idb) {
    uint64_t v_hi;
    const ChoiceStats& cs = choices[pred];
    if (cs.qualifies) {
      // State-independent choice: after any step the relation is one of
      // `combos` values; plus the empty initial value when nonempty.
      v_hi = cs.nonempty ? CostAdd(cs.combos, 1) : 1;
    } else if (report.structure.stationary_predicates.count(pred) > 0) {
      // Monotone trajectory: every new value adds at least one tuple.
      v_hi = CostAdd(hi[pred], 1);
      if (facts[pred].deterministic &&
          std::all_of(facts[pred].rules.begin(), facts[pred].rules.end(),
                      [&](const datalog::Rule* r) {
                        return body_is_edb_only(*r);
                      })) {
        // Depth-1 deterministic: fixed value from step 1 on.
        v_hi = std::min<uint64_t>(v_hi, 2);
      }
    } else {
      v_hi = SubsetsUpTo(CostPow(adom_size, program.arities().at(pred)),
                         hi[pred]);
    }
    states_hi = CostMul(states_hi, v_hi);
  }
  report.states.hi = states_hi;

  // Certified lower bound: qualifying predicates make their repair-key
  // choices independently of the state and of each other, so after one
  // step from the initial state every combination of per-group candidates
  // is reached with positive probability — and distinct combinations are
  // distinct database states. The initial state (empty IDB) is an extra
  // state whenever some qualifying predicate becomes nonempty.
  uint64_t states_lo = 1;
  bool any_nonempty = false;
  for (const auto& [pred, cs] : choices) {
    if (!cs.qualifies) continue;
    states_lo = CostMul(states_lo, cs.combos);
    any_nonempty = any_nonempty || cs.nonempty;
  }
  if (any_nonempty) states_lo = CostAdd(states_lo, 1);
  report.states.lo = std::min(states_lo, report.states.hi);

  // ---- Edge interval ---------------------------------------------------
  // Each state has at least one successor (the kernel is total), and at
  // most prod over probabilistic predicates of their per-step choice
  // count — unknown for non-qualifying probabilistic predicates.
  uint64_t branching = 1;
  for (const auto& pred : idb) {
    const PredFacts& f = facts[pred];
    if (f.deterministic) continue;
    const ChoiceStats& cs = choices[pred];
    branching = CostMul(branching, cs.qualifies ? cs.combos : kCostUnbounded);
  }
  report.edges.hi = std::min(CostMul(report.states.hi, branching),
                             CostMul(report.states.hi, report.states.hi));
  report.edges.lo = report.states.lo;

  // ---- Verdicts --------------------------------------------------------
  if (report.states.hi <= options.compile_max_states) {
    report.backend_verdict = "compiled";
  } else if (report.states.lo > options.compile_max_states) {
    report.backend_verdict = "interpreted";
  } else {
    report.backend_verdict = "unknown";
  }
  if (report.states.hi <= options.max_states) {
    report.recommended_sampler = "exact";
  } else if (report.structure.reducibility_risk) {
    // MCMC restarts inherit the initial basin's bias on a reducible chain;
    // the assumption-free time-average sampler stays sound.
    report.recommended_sampler = "trajectory";
  } else {
    report.recommended_sampler = "mcmc";
  }

  // ---- Diagnostics -----------------------------------------------------
  if (sink != nullptr && options.emit_diagnostics) {
    const SourceSpan whole;  // program-level findings render location-free
    auto interval_str = [](const CostInterval& i) {
      std::string out = "[" + std::to_string(i.lo) + ", ";
      out += i.bounded() ? std::to_string(i.hi) : std::string("unbounded");
      return out + "]";
    };
    if (!report.states.bounded()) {
      sink->Warning(kCodeUnboundedStateSpace, whole,
                    report.has_data
                        ? "no finite bound on the reachable state space; "
                          "exact forever evaluation may exhaust any budget"
                        : "state-space bound unknown without data "
                          "statistics; supply an instance to tighten it");
    }
    if (report.structure.reducibility_risk ||
        report.structure.periodicity_risk) {
      std::string risks;
      if (report.structure.reducibility_risk) risks = "reducibility";
      if (report.structure.periodicity_risk) {
        if (!risks.empty()) risks += " and ";
        risks += "periodicity";
      }
      sink->Warning(kCodeReducibilityRisk, whole,
                    "probabilistic choice interacts with recursion (" +
                        risks +
                        " risk): MCMC burn-in may be biased; prefer the "
                        "trajectory sampler or exact evaluation");
    }
    sink->Note(kCodeChainStructure, whole,
               "chain structure: " +
                   std::to_string(report.structure.deterministic_rules) +
                   " deterministic / " +
                   std::to_string(report.structure.probabilistic_rules) +
                   " probabilistic rules; predicted states " +
                   interval_str(report.states) + ", edges " +
                   interval_str(report.edges));
    if (report.structure.memoryless &&
        report.structure.probabilistic_rules > 0) {
      sink->Note(kCodeMemorylessChain, whole,
                 "every rule reads only EDB relations: successive states "
                 "are i.i.d., the chain mixes in one step (burn-in 1 "
                 "suffices)");
    }
    if (!report.structure.stationary_predicates.empty() &&
        report.structure.probabilistic_rules > 0) {
      std::string preds;
      for (const auto& p : report.structure.stationary_predicates) {
        if (!preds.empty()) preds += ", ";
        preds += p;
      }
      sink->Note(kCodeStationaryPredicates, whole,
                 "deterministic-lineage predicates reach a fixpoint and "
                 "absorb: " +
                     preds);
    }
    sink->Note(kCodeBackendEligibility, whole,
               "compiled-backend eligibility: " + report.backend_verdict +
                   " (predicted states " + interval_str(report.states) +
                   " vs compile budget " +
                   std::to_string(options.compile_max_states) +
                   "); recommended sampler: " + report.recommended_sampler);
  }
  return report;
}

}  // namespace analysis
}  // namespace pfql
