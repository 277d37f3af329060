#include "analysis/analyzer.h"

#include <algorithm>
#include <deque>

namespace pfql {
namespace analysis {

using datalog::Atom;
using datalog::BuiltinAtom;
using datalog::Head;
using datalog::Program;
using datalog::Rule;
using datalog::Term;

bool DependencyGraph::IsRecursive(const std::string& pred) const {
  auto scc_it = scc_index.find(pred);
  if (scc_it == scc_index.end()) return false;
  if (sccs[scc_it->second].size() > 1) return true;
  auto edge_it = edges.find(pred);
  return edge_it != edges.end() && edge_it->second.count(pred) > 0;
}

std::set<std::string> DependencyGraph::ContributorsTo(
    const std::string& target) const {
  std::set<std::string> reached = {target};
  std::deque<std::string> frontier = {target};
  while (!frontier.empty()) {
    std::string pred = std::move(frontier.front());
    frontier.pop_front();
    auto it = edges.find(pred);
    if (it == edges.end()) continue;
    for (const auto& dep : it->second) {
      if (reached.insert(dep).second) frontier.push_back(dep);
    }
  }
  return reached;
}

DependencyGraph BuildDependencyGraph(const Program& program) {
  DependencyGraph graph;
  // Every mentioned predicate is a node, even body-only (EDB) ones.
  for (const auto& [pred, _] : program.arities()) graph.edges[pred];
  for (const auto& rule : program.rules()) {
    auto& out = graph.edges[rule.head.predicate];
    for (const auto& atom : rule.body) out.insert(atom.predicate);
  }

  // Iterative Tarjan SCC over the (deterministically ordered) node set.
  struct NodeState {
    size_t index = 0, lowlink = 0;
    bool visited = false, on_stack = false;
  };
  std::map<std::string, NodeState> state;
  std::vector<std::string> stack;
  size_t next_index = 0;

  struct Frame {
    std::string node;
    std::set<std::string>::const_iterator next, end;
  };
  for (const auto& [root, _] : graph.edges) {
    if (state[root].visited) continue;
    std::vector<Frame> frames;
    auto open = [&](const std::string& node) {
      NodeState& ns = state[node];
      ns.visited = true;
      ns.index = ns.lowlink = next_index++;
      ns.on_stack = true;
      stack.push_back(node);
      const auto& succ = graph.edges.at(node);
      frames.push_back({node, succ.begin(), succ.end()});
    };
    open(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.next != frame.end) {
        const std::string& succ = *frame.next++;
        NodeState& ss = state[succ];
        if (!ss.visited) {
          open(succ);
        } else if (ss.on_stack) {
          NodeState& ns = state[frame.node];
          ns.lowlink = std::min(ns.lowlink, ss.index);
        }
        continue;
      }
      NodeState& ns = state[frame.node];
      if (ns.lowlink == ns.index) {
        std::vector<std::string> component;
        while (true) {
          std::string member = std::move(stack.back());
          stack.pop_back();
          state[member].on_stack = false;
          bool done = member == frame.node;
          component.push_back(std::move(member));
          if (done) break;
        }
        std::sort(component.begin(), component.end());
        for (const auto& member : component) {
          graph.scc_index[member] = graph.sccs.size();
        }
        graph.sccs.push_back(std::move(component));
      }
      std::string finished = std::move(frames.back().node);
      frames.pop_back();
      if (!frames.empty()) {
        NodeState& parent = state[frames.back().node];
        parent.lowlink = std::min(parent.lowlink, state[finished].lowlink);
      }
    }
  }
  return graph;
}

namespace {

std::string JoinSorted(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += "'" + name + "'";
  }
  return out;
}

// ---- Pass: repair-key head well-formedness (Sec 2.2 / 3.3) -------------
//
// A probabilistic head's key ("underlined") columns must form a proper
// subset of the head columns, the weight variable must not double as a key,
// and rules writing the same predicate must agree on which positions are
// keys — otherwise the per-key-group choice the paper defines is ambiguous.
void RepairKeyPass(const Program& program, DiagnosticSink* sink) {
  struct PredicateRules {
    const Rule* first_probabilistic = nullptr;
    size_t first_probabilistic_index = 0;
    const Rule* first_deterministic = nullptr;
    bool mixed_reported = false;
  };
  std::map<std::string, PredicateRules> by_predicate;

  const auto& rules = program.rules();
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& rule = rules[ri];
    const Head& head = rule.head;
    const std::string tag = "rule #" + std::to_string(ri + 1) + ": ";
    const bool probabilistic = head.IsProbabilistic();

    if ((head.explicit_keys || head.weight_var) && head.AllKeys()) {
      if (head.explicit_keys) {
        sink->Error(kCodeKeysNotProperSubset, StatusCode::kInvalidArgument,
                    head.span,
                    tag + "key columns of '" + head.predicate +
                        "' must form a proper subset of the head columns; "
                        "every position is marked <...>, leaving nothing "
                        "for repair-key to choose (drop the markers for a "
                        "deterministic rule)");
      } else {
        sink->Warning(kCodeWeightedDeterministic, head.span,
                      tag + "rule carries @" + *head.weight_var +
                          " but makes no probabilistic choice (no non-key "
                          "variable position); the weight is ignored");
      }
    }

    if (head.weight_var) {
      for (size_t i = 0; i < head.terms.size(); ++i) {
        if (head.is_key[i] && head.terms[i].IsVar() &&
            head.terms[i].var == *head.weight_var) {
          sink->Error(kCodeWeightInKey, StatusCode::kInvalidArgument,
                      head.weight_span.valid() ? head.weight_span
                                               : head.span,
                      tag + "weight variable '" + *head.weight_var +
                          "' also occupies key position " +
                          std::to_string(i + 1) + " of '" + head.predicate +
                          "'; a weight cannot key its own choice group");
        }
      }
    }

    PredicateRules& info = by_predicate[head.predicate];
    if (probabilistic) {
      if (info.first_probabilistic == nullptr) {
        info.first_probabilistic = &rule;
        info.first_probabilistic_index = ri;
      } else {
        const Head& first = info.first_probabilistic->head;
        if (first.is_key != head.is_key) {
          sink->Error(
              kCodeKeyMaskConflict, StatusCode::kInvalidArgument, head.span,
              tag + "probabilistic rules for '" + head.predicate +
                  "' disagree on which positions are keys (rule #" +
                  std::to_string(info.first_probabilistic_index + 1) +
                  " keys a different set); the per-key-group choice is "
                  "ambiguous");
        } else {
          sink->Warning(
              kCodeOverlappingKeyGroups, head.span,
              tag + "second probabilistic rule for '" + head.predicate +
                  "' with the same key positions as rule #" +
                  std::to_string(info.first_probabilistic_index + 1) +
                  "; their repair-key choices are drawn independently and "
                  "may overlap per key group");
        }
      }
    } else if (info.first_deterministic == nullptr) {
      info.first_deterministic = &rule;
    }
  }

  for (auto& [pred, info] : by_predicate) {
    if (info.first_probabilistic != nullptr &&
        info.first_deterministic != nullptr && !info.mixed_reported) {
      info.mixed_reported = true;
      sink->Warning(
          kCodeMixedRuleKinds, info.first_deterministic->head.span,
          "predicate '" + pred +
              "' mixes probabilistic and deterministic rules; "
              "deterministically derived tuples bypass the repair-key "
              "choice of the probabilistic rules");
    }
  }
}

// ---- Pass: recursion / placement of probabilistic choice (Sec 3.3) -----
void RecursionPass(const Program& program, const DependencyGraph& graph,
                   const AnalyzerOptions& options, ProgramAnalysis* result,
                   DiagnosticSink* sink) {
  for (const auto& scc : graph.sccs) {
    const bool recursive =
        scc.size() > 1 || graph.IsRecursive(scc.front());
    if (!recursive) continue;
    for (const auto& pred : scc) result->recursive_predicates.insert(pred);
    if (!options.emit_notes) continue;
    // Anchor the note at the first rule defining a member of the SCC.
    SourceSpan span;
    for (const auto& rule : program.rules()) {
      if (std::find(scc.begin(), scc.end(), rule.head.predicate) !=
          scc.end()) {
        span = rule.head.span;
        break;
      }
    }
    sink->Note(kCodeRecursiveScc, span,
               scc.size() > 1
                   ? "predicates " + JoinSorted(scc) +
                         " are mutually recursive"
                   : "predicate '" + scc.front() + "' is recursive");
  }

  if (!options.emit_notes) return;
  const auto& rules = program.rules();
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& rule = rules[ri];
    if (!rule.head.IsProbabilistic()) continue;
    auto head_scc = graph.scc_index.find(rule.head.predicate);
    if (head_scc == graph.scc_index.end()) continue;
    for (const auto& atom : rule.body) {
      auto body_scc = graph.scc_index.find(atom.predicate);
      if (body_scc == graph.scc_index.end() ||
          body_scc->second != head_scc->second) {
        continue;
      }
      sink->Note(kCodeProbabilisticRecursion, rule.head.span,
                 "rule #" + std::to_string(ri + 1) +
                     ": probabilistic choice inside the recursion through '" +
                     atom.predicate +
                     "'; under the inflationary semantics each round draws "
                     "fresh repairs over new valuations only (Sec 3.3)");
      break;
    }
  }
}

// ---- Pass: guaranteed-termination hints (Table 1, Prop 5.4) ------------
void TerminationPass(const Program& program, const AnalyzerOptions& options,
                     ProgramAnalysis* result, DiagnosticSink* sink) {
  result->linear = program.IsLinear();
  result->has_probabilistic_rules = program.HasProbabilisticRules();
  if (!options.emit_notes) return;

  if (result->linear) {
    sink->Note(kCodeLinearFragment, SourceSpan(),
               "program is linear datalog (at most one IDB atom per body), "
               "the fragment of Sec 3.3's complexity analysis");
  } else {
    const auto& rules = program.rules();
    for (size_t ri = 0; ri < rules.size(); ++ri) {
      size_t idb_atoms = 0;
      const Atom* second = nullptr;
      for (const auto& atom : rules[ri].body) {
        if (program.idb_predicates().count(atom.predicate) == 0) continue;
        if (++idb_atoms == 2) second = &atom;
      }
      if (idb_atoms > 1) {
        sink->Note(kCodeNonLinearRule, second->span,
                   "rule #" + std::to_string(ri + 1) + " has " +
                       std::to_string(idb_atoms) +
                       " IDB atoms, so the program is outside linear "
                       "datalog");
      }
    }
  }
  if (!result->has_probabilistic_rules) {
    sink->Note(kCodeNoProbabilisticRules, SourceSpan(),
               "program has no probabilistic rules; evaluation is a "
               "deterministic fixpoint (the non-probabilistic fragment of "
               "Sec 3.3)");
  }
  sink->Note(kCodeBoundedStateSpace, SourceSpan(),
             "no value invention: every derivable value occurs in the EDB "
             "or in a fact, so the reachable state space is bounded by the "
             "active domain (termination with probability 1)");
}

// ---- Pass: dead code ---------------------------------------------------
bool BuiltinNeverHolds(const BuiltinAtom& builtin) {
  const Term& l = builtin.lhs;
  const Term& r = builtin.rhs;
  if (!l.IsVar() && !r.IsVar()) {
    return !CmpHolds(builtin.op, l.value, r.value);
  }
  if (l.IsVar() && r.IsVar() && l.var == r.var) {
    // X op X is unsatisfiable for the strict / inequality operators.
    return builtin.op == CmpOp::kNe || builtin.op == CmpOp::kLt ||
           builtin.op == CmpOp::kGt;
  }
  return false;
}

void DeadCodePass(const Program& program, const DependencyGraph& graph,
                  const AnalyzerOptions& options, DiagnosticSink* sink) {
  const auto& rules = program.rules();

  for (size_t ri = 0; ri < rules.size(); ++ri) {
    for (const auto& builtin : rules[ri].builtins) {
      if (BuiltinNeverHolds(builtin)) {
        sink->Warning(kCodeNeverFires, builtin.span,
                      "rule #" + std::to_string(ri + 1) +
                          " can never fire: '" + builtin.ToString() +
                          "' is always false");
      }
    }
  }

  std::map<std::string, size_t> seen;
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    auto [it, inserted] = seen.emplace(rules[ri].ToString(), ri);
    if (!inserted) {
      sink->Warning(kCodeDuplicateRule, rules[ri].span,
                    "rule #" + std::to_string(ri + 1) +
                        " duplicates rule #" +
                        std::to_string(it->second + 1) + ": " +
                        rules[ri].ToString());
    }
  }

  if (!options.goal_predicate.has_value()) return;
  const std::string& goal = *options.goal_predicate;
  if (program.arities().count(goal) == 0) {
    sink->Warning(kCodeDeadPredicate, SourceSpan(),
                  "query event relation '" + goal +
                      "' is not mentioned by the program; the event can "
                      "never hold");
    return;
  }
  const std::set<std::string> contributors = graph.ContributorsTo(goal);
  std::set<std::string> reported;
  for (const auto& rule : rules) {
    const std::string& pred = rule.head.predicate;
    if (contributors.count(pred) > 0 || !reported.insert(pred).second) {
      continue;
    }
    sink->Warning(kCodeDeadPredicate, rule.head.span,
                  "predicate '" + pred +
                      "' cannot contribute to the query event '" + goal +
                      "' (unreachable in the dependency graph)");
  }
}

}  // namespace

ProgramAnalysis AnalyzeProgram(const Program& program,
                               const AnalyzerOptions& options,
                               DiagnosticSink* sink) {
  ProgramAnalysis result;
  result.graph = BuildDependencyGraph(program);
  RepairKeyPass(program, sink);
  RecursionPass(program, result.graph, options, &result, sink);
  TerminationPass(program, options, &result, sink);
  DeadCodePass(program, result.graph, options, sink);
  return result;
}

LintResult LintProgramSource(std::string_view source,
                             const AnalyzerOptions& options) {
  LintResult result;
  result.program = datalog::ParseProgram(source, &result.sink);
  if (result.program.has_value()) {
    AnalyzeProgram(*result.program, options, &result.sink);
  }
  return result;
}

}  // namespace analysis
}  // namespace pfql
