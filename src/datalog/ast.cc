#include "datalog/ast.h"

#include <algorithm>

namespace pfql {
namespace datalog {

namespace {
void AddDistinct(std::vector<std::string>* out, const std::string& v) {
  if (std::find(out->begin(), out->end(), v) == out->end()) {
    out->push_back(v);
  }
}
}  // namespace

std::string Atom::ToString() const {
  std::string out = predicate + "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms[i].ToString();
  }
  return out + ")";
}

std::string BuiltinAtom::ToString() const {
  return lhs.ToString() + " " + CmpOpToString(op) + " " + rhs.ToString();
}

std::string Head::ToString() const {
  // Classical rules (all variables keyed, no weight) print without markers:
  // the parser's classical-rule convention restores the key flags.
  const bool omit_markers = AllKeys() && !weight_var.has_value();
  std::string out = predicate;
  if (!terms.empty()) {
    out += "(";
    for (size_t i = 0; i < terms.size(); ++i) {
      if (i > 0) out += ", ";
      const bool mark =
          !omit_markers && is_key[i] && terms[i].kind == Term::Kind::kVariable;
      if (mark) {
        out += "<" + terms[i].ToString() + ">";
      } else {
        out += terms[i].ToString();
      }
    }
    out += ")";
  }
  if (weight_var) out += " @" + *weight_var;
  return out;
}

std::vector<std::string> Rule::BodyVariables() const {
  std::vector<std::string> out;
  for (const auto& atom : body) {
    for (const auto& t : atom.terms) {
      if (t.IsVar()) AddDistinct(&out, t.var);
    }
  }
  return out;
}

std::vector<std::string> Rule::HeadVariables() const {
  std::vector<std::string> out;
  for (const auto& t : head.terms) {
    if (t.IsVar()) AddDistinct(&out, t.var);
  }
  return out;
}

std::vector<std::string> Rule::KeyVariables() const {
  std::vector<std::string> out;
  for (size_t i = 0; i < head.terms.size(); ++i) {
    if (head.is_key[i] && head.terms[i].IsVar()) {
      AddDistinct(&out, head.terms[i].var);
    }
  }
  return out;
}

std::vector<std::string> Rule::ProjectionColumns() const {
  std::vector<std::string> out = HeadVariables();
  if (head.weight_var) AddDistinct(&out, *head.weight_var);
  return out;
}

std::string Rule::ToString() const {
  std::string out = head.ToString();
  if (!IsFact()) {
    out += " :- ";
    bool first = true;
    for (const auto& a : body) {
      if (!first) out += ", ";
      first = false;
      out += a.ToString();
    }
    for (const auto& b : builtins) {
      if (!first) out += ", ";
      first = false;
      out += b.ToString();
    }
  }
  return out + ".";
}

}  // namespace datalog
}  // namespace pfql
