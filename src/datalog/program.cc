#include "datalog/program.h"

#include <algorithm>

namespace pfql {
namespace datalog {

namespace {

/// Best available span for a diagnostic: the specific term/atom span when
/// the parser stamped one, else the enclosing head/atom span, else the
/// whole rule. Programmatic ASTs (built without the parser) often carry
/// default or zero-width spans; normalizing here keeps caret rendering and
/// SARIF regions from pointing at column/offset 0.
SourceSpan DiagnosticSpan(SourceSpan specific, const SourceSpan& enclosing,
                          const SourceSpan& rule_span) {
  SourceSpan span = specific.valid()    ? specific
                    : enclosing.valid() ? enclosing
                                        : rule_span;
  if (!span.valid()) return span;  // fully unknown: render location-free
  if (span.begin.column == 0) span.begin.column = 1;
  if (!span.end.valid()) span.end = span.begin;
  if (span.end.line == span.begin.line &&
      span.end.column <= span.begin.column) {
    span.end.column = span.begin.column + 1;  // at least one caret column
  }
  return span;
}

}  // namespace

StatusOr<Program> Program::Make(std::vector<Rule> rules) {
  analysis::DiagnosticSink sink;
  std::optional<Program> program = Make(std::move(rules), &sink);
  if (!program.has_value()) return sink.ToStatus();
  return *std::move(program);
}

std::optional<Program> Program::Make(std::vector<Rule> rules,
                                     analysis::DiagnosticSink* sink) {
  Program p;
  const size_t errors_before = sink->Count(analysis::Severity::kError);
  // Diagnostics name rules by 1-based index; spans point at the offending
  // head/atom/term so multi-rule programs stay unambiguous.
  auto rule_tag = [](size_t index) {
    return "rule #" + std::to_string(index + 1) + ": ";
  };

  // Pass 1: arities and IDB set.
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& rule = rules[ri];
    auto check_arity = [&](const std::string& pred, size_t arity,
                           const SourceSpan& span) {
      auto [it, inserted] = p.arities_.emplace(pred, arity);
      if (!inserted && it->second != arity) {
        sink->Error(analysis::kCodeArityMismatch, StatusCode::kTypeError,
                    DiagnosticSpan(span, rule.span, rule.span),
                    rule_tag(ri) + "predicate '" + pred +
                        "' used with arity " + std::to_string(arity) +
                        ", but other occurrences have arity " +
                        std::to_string(it->second));
      }
    };
    check_arity(rule.head.predicate, rule.head.terms.size(), rule.head.span);
    if (rule.head.is_key.size() != rule.head.terms.size()) {
      sink->Error(analysis::kCodeMalformedAst, StatusCode::kInternal,
                  DiagnosticSpan(rule.span, rule.span, rule.span),
                  rule_tag(ri) + "head key-flag vector size mismatch in " +
                      rule.ToString());
      continue;
    }
    p.idb_.insert(rule.head.predicate);
    for (const auto& atom : rule.body) {
      check_arity(atom.predicate, atom.terms.size(), atom.span);
    }
  }
  for (const auto& [pred, _] : p.arities_) {
    if (!p.idb_.count(pred)) p.edb_.insert(pred);
  }

  // Pass 2: safety.
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Rule& rule = rules[ri];
    std::vector<std::string> body_vars = rule.BodyVariables();
    auto bound = [&](const std::string& v) {
      return std::find(body_vars.begin(), body_vars.end(), v) !=
             body_vars.end();
    };
    for (const auto& t : rule.head.terms) {
      if (!t.IsVar() || bound(t.var)) continue;
      if (rule.IsFact()) {
        sink->Error(analysis::kCodeNonGroundFact,
                    StatusCode::kInvalidArgument,
                    DiagnosticSpan(t.span, rule.head.span, rule.span),
                    rule_tag(ri) + "fact head must be ground, but '" +
                        t.var + "' is a variable: " + rule.ToString());
      } else {
        sink->Error(analysis::kCodeUnsafeHeadVar,
                    StatusCode::kInvalidArgument,
                    DiagnosticSpan(t.span, rule.head.span, rule.span),
                    rule_tag(ri) + "unsafe rule (head variable '" + t.var +
                        "' not bound in body): " + rule.ToString());
      }
    }
    if (rule.head.weight_var && !bound(*rule.head.weight_var)) {
      sink->Error(
          analysis::kCodeUnsafeWeightVar, StatusCode::kInvalidArgument,
          DiagnosticSpan(rule.head.weight_span, rule.head.span, rule.span),
                  rule_tag(ri) + "unsafe rule (weight variable '" +
                      *rule.head.weight_var +
                      "' not bound in body): " + rule.ToString());
    }
    for (const auto& builtin : rule.builtins) {
      for (const Term* t : {&builtin.lhs, &builtin.rhs}) {
        if (t->IsVar() && !bound(t->var)) {
          sink->Error(analysis::kCodeUnsafeBuiltinVar,
                      StatusCode::kInvalidArgument,
                      DiagnosticSpan(t->span, builtin.span, rule.span),
                      rule_tag(ri) + "unsafe rule (builtin variable '" +
                          t->var + "' not bound in a relational atom): " +
                          rule.ToString());
        }
      }
    }
  }

  if (sink->Count(analysis::Severity::kError) > errors_before) {
    return std::nullopt;
  }
  p.rules_ = std::move(rules);
  return p;
}

bool Program::IsLinear() const {
  for (const auto& rule : rules_) {
    size_t idb_atoms = 0;
    for (const auto& atom : rule.body) {
      if (idb_.count(atom.predicate)) ++idb_atoms;
    }
    if (idb_atoms > 1) return false;
  }
  return true;
}

bool Program::HasProbabilisticRules() const {
  for (const auto& rule : rules_) {
    if (rule.head.IsProbabilistic()) return true;
  }
  return false;
}

Schema Program::CanonicalSchema(const std::string& predicate) const {
  auto it = arities_.find(predicate);
  const size_t arity = it == arities_.end() ? 0 : it->second;
  std::vector<std::string> cols;
  cols.reserve(arity);
  for (size_t i = 0; i < arity; ++i) cols.push_back("a" + std::to_string(i));
  return Schema(std::move(cols));
}

StatusOr<Instance> Program::InitialInstance(
    const Instance& edb_instance) const {
  Instance out;
  for (const auto& pred : edb_) {
    Instance::RelationPtr rel = edb_instance.FindShared(pred);
    if (rel == nullptr) {
      return Status::NotFound("relation '" + pred + "' not in instance");
    }
    const size_t expected = arities_.at(pred);
    if (!rel->empty() && rel->schema().size() != expected) {
      return Status::TypeError("EDB relation '" + pred + "' has arity " +
                               std::to_string(rel->schema().size()) +
                               ", program expects " +
                               std::to_string(expected));
    }
    out.Set(pred, std::move(rel));  // shared with the input
  }
  for (const auto& pred : idb_) {
    if (edb_instance.Has(pred)) {
      return Status::InvalidArgument(
          "IDB relation '" + pred +
          "' must not be present in the input instance");
    }
    out.Set(pred, Relation(CanonicalSchema(pred)));
  }
  return out;
}

std::string Program::ToString() const {
  std::string out;
  for (const auto& rule : rules_) out += rule.ToString() + "\n";
  return out;
}

}  // namespace datalog
}  // namespace pfql
