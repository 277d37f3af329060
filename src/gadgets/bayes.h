// Bayesian networks over Boolean variables and the paper's Example 3.10:
// computing (joint) marginals via probabilistic datalog with repair-key.
// The network is encoded in relations s<k>(n0, n1..nk) (parent structure,
// one relation per in-degree k) and t<k>(n0, v0, v1..vk, w) (conditional
// probability tables as integer weights), and the single IDB predicate
// val(N, V) holds one sampled value per variable in each possible world.
#ifndef PFQL_GADGETS_BAYES_H_
#define PFQL_GADGETS_BAYES_H_

#include <string>
#include <utility>
#include <vector>

#include "datalog/program.h"
#include "lang/interpretation.h"
#include "util/rational.h"
#include "util/status.h"

namespace pfql {
namespace gadgets {

/// One node of a Boolean Bayesian network.
struct BayesNode {
  std::string name;
  /// Indices of parent nodes (must precede this node: topological order).
  std::vector<size_t> parents;
  /// Pr[node = 1 | parents]: one entry per parent-value combination, indexed
  /// by the bitmask with parents[0] as the least-significant bit. Exact
  /// rationals keep the datalog encoding and ground truth exact.
  std::vector<BigRational> p_true;
};

/// A Boolean Bayesian network in topological order.
struct BayesNet {
  std::vector<BayesNode> nodes;

  /// Checks topological parent order, CPT sizes, and probability ranges.
  Status Validate() const;

  /// Exact joint probability of an assignment (one bool per node).
  BigRational JointProbability(const std::vector<bool>& assignment) const;

  /// Exact marginal Pr[⋀ (node_i = value_i)] by 2^n enumeration.
  StatusOr<BigRational> ExactMarginal(
      const std::vector<std::pair<size_t, bool>>& query) const;
};

/// Generators.
/// Markov chain X0 -> X1 -> ... -> Xn-1 with Pr[X0=1] = 1/2,
/// Pr[Xi=1 | parent=1] = 3/4 and Pr[Xi=1 | parent=0] = 1/4.
BayesNet ChainBayesNet(size_t n);
/// The classic 4-node sprinkler network (Cloudy, Sprinkler, Rain, WetGrass).
BayesNet SprinklerNet();

/// The Example 3.10 encoding: program + EDB + query event for a marginal.
struct BayesGadget {
  datalog::Program program;
  Instance edb;
  QueryEvent event;
};

/// Builds the datalog program for `net` with the marginal query
/// Pr[⋀ (node_i = value_i)]; the program's exact/approximate evaluation
/// reproduces BayesNet::ExactMarginal.
StatusOr<BayesGadget> BayesMarginalProgram(
    const BayesNet& net, const std::vector<std::pair<size_t, bool>>& query);

}  // namespace gadgets
}  // namespace pfql

#endif  // PFQL_GADGETS_BAYES_H_
