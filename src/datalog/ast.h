// Abstract syntax for probabilistic datalog (paper Sec 3.3): datalog
// extended with repair-key rule heads. In the concrete syntax, key
// ("underlined") head columns are wrapped in angle brackets and the optional
// weight variable follows '@':
//
//   H(<X>, <Y>, Z) @P :- R(X, Y, Z, P, W).
//
// corresponds to the paper's  H(X̲, Y̲, Z)@P ← R(X,Y,Z,P,W).
#ifndef PFQL_DATALOG_AST_H_
#define PFQL_DATALOG_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "relational/expr.h"
#include "relational/value.h"
#include "util/source_span.h"

namespace pfql {
namespace datalog {

/// A term: a variable (upper-case identifier) or a constant.
struct Term {
  enum class Kind { kVariable, kConstant };

  static Term Var(std::string name) {
    Term t;
    t.kind = Kind::kVariable;
    t.var = std::move(name);
    return t;
  }
  static Term Const(Value v) {
    Term t;
    t.kind = Kind::kConstant;
    t.value = std::move(v);
    return t;
  }

  bool IsVar() const { return kind == Kind::kVariable; }
  std::string ToString() const {
    if (IsVar()) return var;
    if (!value.is_string()) return value.ToString();
    // String literals have no escapes, and one may hold the other quote
    // character: quote with one the text does not contain.
    const std::string& text = value.AsString();
    const char quote = text.find('"') == std::string::npos ? '"' : '\'';
    return quote + text + quote;
  }

  Kind kind = Kind::kConstant;
  std::string var;
  Value value;
  /// Source location of the term's token; unknown for programmatic ASTs.
  SourceSpan span;
};

/// A relational atom p(t₁, ..., tₖ) in a rule body.
struct Atom {
  std::string predicate;
  std::vector<Term> terms;
  /// Covers the predicate name through the closing parenthesis.
  SourceSpan span;

  std::string ToString() const;
};

/// A built-in comparison atom (t₁ op t₂) in a rule body.
struct BuiltinAtom {
  CmpOp op = CmpOp::kEq;
  Term lhs, rhs;
  /// Covers lhs through rhs.
  SourceSpan span;

  std::string ToString() const;
};

/// A rule head: predicate, terms, per-position key flags, optional weight
/// variable. A head position is a *key* position iff its flag is set (the
/// paper's underline).
///
/// Concrete-syntax convention: a head with no <...> markers and no @weight
/// is a classical datalog rule — the parser marks every position as a key,
/// making it deterministic ("a rule in which all head variables are
/// underlined is essentially non-probabilistic", Sec 3.3). As soon as any
/// marker or @weight appears, unmarked variable positions are
/// non-key, i.e. targets of the probabilistic repair-key choice.
struct Head {
  std::string predicate;
  std::vector<Term> terms;
  std::vector<bool> is_key;  // parallel to terms
  std::optional<std::string> weight_var;
  /// Covers the predicate name through ')' / the @weight variable.
  SourceSpan span;
  /// Location of the weight variable token, when present.
  SourceSpan weight_span;
  /// True iff the concrete syntax carried explicit <...> key markers (as
  /// opposed to the classical-rule convention keying every position).
  /// Lets the analyzer distinguish `h(<X>) :- ...` from `h(X) :- ...`.
  bool explicit_keys = false;

  /// True iff every *variable* head position is a key. Constant positions
  /// are fixed regardless, so they never make a rule probabilistic.
  bool AllKeys() const {
    for (size_t i = 0; i < terms.size(); ++i) {
      if (terms[i].kind == Term::Kind::kVariable && !is_key[i]) return false;
    }
    return true;
  }
  /// True iff the rule makes probabilistic choices when it fires: some
  /// variable position is left to the repair-key choice. (A weighted rule
  /// whose variables are all keys picks among rows that map to the same
  /// head tuple — effectively deterministic.)
  bool IsProbabilistic() const { return !AllKeys(); }

  std::string ToString() const;
};

/// A rule: head :- body. Facts are rules with empty bodies.
struct Rule {
  Head head;
  std::vector<Atom> body;
  std::vector<BuiltinAtom> builtins;
  /// Covers the head through the terminating period.
  SourceSpan span;

  bool IsFact() const { return body.empty() && builtins.empty(); }

  /// Distinct body variables in order of first occurrence (the schema of
  /// this rule's valuation relation).
  std::vector<std::string> BodyVariables() const;
  /// Distinct head variables in order of first occurrence.
  std::vector<std::string> HeadVariables() const;
  /// Key-position head variables, in order of first occurrence.
  std::vector<std::string> KeyVariables() const;
  /// The columns of the projection π_{X̄,Ȳ,P} that feeds the head: the head
  /// variables, then the weight variable if it is not one of them.
  std::vector<std::string> ProjectionColumns() const;

  std::string ToString() const;
};

}  // namespace datalog
}  // namespace pfql

#endif  // PFQL_DATALOG_AST_H_
