#include "gadgets/bayes.h"

#include <map>
#include <set>

namespace pfql {
namespace gadgets {

Status BayesNet::Validate() const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    const BayesNode& node = nodes[i];
    if (node.name.empty()) {
      return Status::InvalidArgument("node " + std::to_string(i) +
                                     " has an empty name");
    }
    for (size_t p : node.parents) {
      if (p >= i) {
        return Status::InvalidArgument(
            "node '" + node.name +
            "' has a parent at or after its own position (nodes must be "
            "topologically ordered)");
      }
    }
    const size_t expected = size_t{1} << node.parents.size();
    if (node.p_true.size() != expected) {
      return Status::InvalidArgument(
          "node '" + node.name + "' CPT has " +
          std::to_string(node.p_true.size()) + " rows, expected " +
          std::to_string(expected));
    }
    for (const auto& p : node.p_true) {
      if (p.IsNegative() || BigRational(1) < p) {
        return Status::InvalidArgument("node '" + node.name +
                                       "' CPT probability " + p.ToString() +
                                       " outside [0, 1]");
      }
    }
  }
  std::set<std::string> names;
  for (const auto& node : nodes) {
    if (!names.insert(node.name).second) {
      return Status::InvalidArgument("duplicate node name '" + node.name +
                                     "'");
    }
  }
  return Status::OK();
}

BigRational BayesNet::JointProbability(
    const std::vector<bool>& assignment) const {
  BigRational joint(1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const BayesNode& node = nodes[i];
    size_t mask = 0;
    for (size_t b = 0; b < node.parents.size(); ++b) {
      if (assignment[node.parents[b]]) mask |= size_t{1} << b;
    }
    const BigRational& p1 = node.p_true[mask];
    joint *= assignment[i] ? p1 : BigRational(1) - p1;
  }
  return joint;
}

StatusOr<BigRational> BayesNet::ExactMarginal(
    const std::vector<std::pair<size_t, bool>>& query) const {
  for (const auto& [idx, _] : query) {
    if (idx >= nodes.size()) {
      return Status::OutOfRange("query node index out of range");
    }
  }
  if (nodes.size() > 24) {
    return Status::ResourceExhausted(
        "exact marginal enumeration limited to 24 nodes");
  }
  BigRational total;
  std::vector<bool> assignment(nodes.size(), false);
  const uint64_t worlds = uint64_t{1} << nodes.size();
  for (uint64_t mask = 0; mask < worlds; ++mask) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      assignment[i] = (mask >> i) & 1;
    }
    bool matches = true;
    for (const auto& [idx, value] : query) {
      if (assignment[idx] != value) {
        matches = false;
        break;
      }
    }
    if (matches) total += JointProbability(assignment);
  }
  return total;
}

BayesNet ChainBayesNet(size_t n) {
  BayesNet net;
  for (size_t i = 0; i < n; ++i) {
    BayesNode node;
    node.name = "x" + std::to_string(i);
    if (i == 0) {
      node.p_true = {BigRational(1, 2)};
    } else {
      node.parents = {i - 1};
      node.p_true = {BigRational(1, 4), BigRational(3, 4)};
    }
    net.nodes.push_back(std::move(node));
  }
  return net;
}

BayesNet SprinklerNet() {
  BayesNet net;
  {
    BayesNode cloudy;
    cloudy.name = "cloudy";
    cloudy.p_true = {BigRational(1, 2)};
    net.nodes.push_back(std::move(cloudy));
  }
  {
    BayesNode sprinkler;  // parent: cloudy
    sprinkler.name = "sprinkler";
    sprinkler.parents = {0};
    sprinkler.p_true = {BigRational(1, 2), BigRational(1, 10)};
    net.nodes.push_back(std::move(sprinkler));
  }
  {
    BayesNode rain;  // parent: cloudy
    rain.name = "rain";
    rain.parents = {0};
    rain.p_true = {BigRational(1, 5), BigRational(4, 5)};
    net.nodes.push_back(std::move(rain));
  }
  {
    BayesNode wet;  // parents: sprinkler, rain
    wet.name = "wet";
    wet.parents = {1, 2};
    // index bit0 = sprinkler, bit1 = rain
    wet.p_true = {BigRational(0), BigRational(9, 10), BigRational(9, 10),
                  BigRational(99, 100)};
    net.nodes.push_back(std::move(wet));
  }
  return net;
}

namespace {

using datalog::Atom;
using datalog::Program;
using datalog::Rule;
using datalog::Term;

// Integer weights (w_true, w_false) proportional to (p, 1-p).
StatusOr<std::pair<int64_t, int64_t>> CptWeights(const BigRational& p) {
  BigInt w_true = p.num();
  BigInt w_false = p.den() - p.num();
  PFQL_ASSIGN_OR_RETURN(int64_t wt, w_true.ToInt64());
  PFQL_ASSIGN_OR_RETURN(int64_t wf, w_false.ToInt64());
  return std::make_pair(wt, wf);
}

}  // namespace

StatusOr<BayesGadget> BayesMarginalProgram(
    const BayesNet& net, const std::vector<std::pair<size_t, bool>>& query) {
  PFQL_RETURN_NOT_OK(net.Validate());
  for (const auto& [idx, _] : query) {
    if (idx >= net.nodes.size()) {
      return Status::OutOfRange("query node index out of range");
    }
  }
  BayesGadget gadget;

  // Group nodes by in-degree; build s<k> and t<k> relations.
  std::map<size_t, std::vector<size_t>> by_degree;
  for (size_t i = 0; i < net.nodes.size(); ++i) {
    by_degree[net.nodes[i].parents.size()].push_back(i);
  }
  for (const auto& [k, members] : by_degree) {
    std::vector<std::string> s_cols{"n0"};
    for (size_t b = 1; b <= k; ++b) s_cols.push_back("n" + std::to_string(b));
    Relation s{Schema(s_cols)};

    std::vector<std::string> t_cols{"n0", "v0"};
    for (size_t b = 1; b <= k; ++b) t_cols.push_back("v" + std::to_string(b));
    t_cols.push_back("w");
    Relation t{Schema(t_cols)};

    for (size_t i : members) {
      const BayesNode& node = net.nodes[i];
      Tuple s_row{Value(node.name)};
      for (size_t p : node.parents) s_row.Append(Value(net.nodes[p].name));
      s.Insert(std::move(s_row));

      const size_t rows = size_t{1} << k;
      for (size_t mask = 0; mask < rows; ++mask) {
        PFQL_ASSIGN_OR_RETURN(auto weights, CptWeights(node.p_true[mask]));
        for (int v0 = 0; v0 <= 1; ++v0) {
          Tuple t_row{Value(node.name), Value(int64_t{v0})};
          for (size_t b = 0; b < k; ++b) {
            t_row.Append(Value(static_cast<int64_t>((mask >> b) & 1)));
          }
          t_row.Append(Value(v0 == 1 ? weights.first : weights.second));
          t.Insert(std::move(t_row));
        }
      }
    }
    gadget.edb.Set("s" + std::to_string(k), std::move(s));
    gadget.edb.Set("t" + std::to_string(k), std::move(t));
  }

  // Rules: val(<N0>, V0) @W :- t<k>(N0,V0,V1..Vk,W), s<k>(N0,N1..Nk),
  //                            val(N1,V1), ..., val(Nk,Vk).
  std::vector<Rule> rules;
  for (const auto& [k, _] : by_degree) {
    Rule rule;
    rule.head.predicate = "val";
    rule.head.terms = {Term::Var("N0"), Term::Var("V0")};
    rule.head.is_key = {true, false};
    rule.head.weight_var = "W";

    Atom t_atom;
    t_atom.predicate = "t" + std::to_string(k);
    t_atom.terms = {Term::Var("N0"), Term::Var("V0")};
    for (size_t b = 1; b <= k; ++b) {
      t_atom.terms.push_back(Term::Var("V" + std::to_string(b)));
    }
    t_atom.terms.push_back(Term::Var("W"));
    rule.body.push_back(std::move(t_atom));

    Atom s_atom;
    s_atom.predicate = "s" + std::to_string(k);
    s_atom.terms = {Term::Var("N0")};
    for (size_t b = 1; b <= k; ++b) {
      s_atom.terms.push_back(Term::Var("N" + std::to_string(b)));
    }
    rule.body.push_back(std::move(s_atom));

    for (size_t b = 1; b <= k; ++b) {
      Atom val_atom;
      val_atom.predicate = "val";
      val_atom.terms = {Term::Var("N" + std::to_string(b)),
                        Term::Var("V" + std::to_string(b))};
      rule.body.push_back(std::move(val_atom));
    }
    rules.push_back(std::move(rule));
  }

  // q(yes) :- val(node_1, v_1), ..., val(node_m, v_m).
  {
    Rule q;
    q.head.predicate = "q";
    q.head.terms = {Term::Const(Value("yes"))};
    q.head.is_key = {true};
    for (const auto& [idx, value] : query) {
      Atom val_atom;
      val_atom.predicate = "val";
      val_atom.terms = {Term::Const(Value(net.nodes[idx].name)),
                        Term::Const(Value(static_cast<int64_t>(value)))};
      q.body.push_back(std::move(val_atom));
    }
    rules.push_back(std::move(q));
  }

  PFQL_ASSIGN_OR_RETURN(gadget.program, Program::Make(std::move(rules)));
  gadget.event = {"q", Tuple{Value("yes")}};
  return gadget;
}

}  // namespace gadgets
}  // namespace pfql
