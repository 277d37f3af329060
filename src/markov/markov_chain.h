// Finite Markov chains (paper Sec 2.3): sparse stochastic transition
// structure with exact rational probabilities, SCC decomposition,
// irreducibility / aperiodicity / ergodicity tests, stationary distributions
// and absorption probabilities into bottom SCCs (the general algorithm of
// Thm 5.5), each solved at double or exactly by one templated body, step
// distributions, and mixing time (Sec 2.3's t(ε)).
#ifndef PFQL_MARKOV_MARKOV_CHAIN_H_
#define PFQL_MARKOV_MARKOV_CHAIN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "util/cancellation.h"
#include "util/rational.h"
#include "util/status.h"

namespace pfql {

/// SCC decomposition of the chain's directed transition graph.
struct SccDecomposition {
  /// Component id per state; ids are in *reverse topological* order of the
  /// condensation (i.e. edges go from higher ids to lower ids is NOT
  /// guaranteed; use `bottom` / `dag_edges` instead).
  std::vector<size_t> component_of;
  /// States of each component.
  std::vector<std::vector<size_t>> components;
  /// Condensation edges (from-component, to-component), deduplicated.
  std::vector<std::pair<size_t, size_t>> dag_edges;
  /// True for components with no outgoing condensation edge (closed /
  /// recurrent classes; the "leaves" of Thm 5.5).
  std::vector<bool> is_bottom;
};

/// A finite Markov chain with exact rational transition probabilities,
/// stored as one CSR: state s's row is entries_[offsets_[s], offsets_[s+1]).
/// Stochastic by construction: FromRows is the only way to build a
/// non-empty chain, and it admits only rows whose positive entries go to
/// distinct states and sum to exactly 1.
class MarkovChain {
 public:
  /// One transition of a row: (successor state, probability).
  using Entry = std::pair<uint32_t, BigRational>;
  /// Rows as FromRows takes them, one (successor, probability) list each.
  using Rows = std::vector<std::vector<std::pair<size_t, BigRational>>>;

  /// The empty chain (no states).
  MarkovChain() = default;

  /// The chain whose row s lists rows[s] in order, zero entries dropped.
  /// InvalidArgument for a negative probability, a successor listed twice
  /// in one row, or a row that does not sum to exactly 1; OutOfRange for a
  /// successor that is not a state; ResourceExhausted when the states or
  /// entries do not fit the uint32 CSR layout.
  static StatusOr<MarkovChain> FromRows(Rows rows);

  size_t num_states() const { return offsets_.size() - 1; }
  size_t num_entries() const { return entries_.size(); }
  /// Row offsets into the entries, num_states() + 1 of them.
  const std::vector<uint32_t>& offsets() const { return offsets_; }

  /// Sparse outgoing transitions of a state, every probability positive.
  std::span<const Entry> Row(size_t state) const {
    return {entries_.data() + offsets_[state],
            entries_.data() + offsets_[state + 1]};
  }

  /// One step of the distribution: returns v·P using the sparse rows
  /// (O(edges), not O(states²)).
  std::vector<double> StepDistribution(const std::vector<double>& v) const;

  // ---- Structure -----------------------------------------------------
  SccDecomposition DecomposeScc() const;
  bool IsIrreducible() const;
  /// Period of the chain restricted to `state`'s SCC (1 = aperiodic there).
  size_t PeriodOf(size_t state) const;
  bool IsAperiodic() const;
  /// Irreducible + aperiodic (finite chains are positively recurrent when
  /// irreducible).
  bool IsErgodic() const { return IsIrreducible() && IsAperiodic(); }

  // ---- Stationary analysis -------------------------------------------
  /// Solves πP = π, Σπ = 1 by Gaussian elimination at double (or exactly,
  /// over BigRational). Requires an irreducible chain (error otherwise).
  /// Valid for periodic chains too: the result is the Cesàro-limit
  /// occupation distribution used by the paper's query semantics. The one
  /// iterative solver is CompiledChain::Stationary.
  StatusOr<std::vector<double>> StationaryDistribution() const;
  StatusOr<std::vector<BigRational>> ExactStationaryDistribution() const;

  /// Distribution after `steps` steps from the given start distribution.
  StatusOr<std::vector<double>> DistributionAfter(
      std::vector<double> start, size_t steps) const;

  /// Probability, for each bottom SCC, that a walk from `start` is
  /// eventually absorbed there (indexed like SccDecomposition::components,
  /// zero for non-bottom components).
  StatusOr<std::vector<double>> AbsorptionProbabilities(size_t start) const;
  StatusOr<std::vector<BigRational>> ExactAbsorptionProbabilities(
      size_t start) const;

  /// The paper's query-result semantics (Def 3.2 / Thm 5.5): the long-run
  /// fraction of time spent in states satisfying `event`, starting from
  /// `start`. Handles reducible chains by absorption into bottom SCCs.
  /// Cancelled/DeadlineExceeded when `cancel` fires during a solve.
  StatusOr<double> LongRunProbability(
      size_t start, const std::function<bool(size_t)>& event,
      const CancellationToken* cancel = nullptr) const;
  StatusOr<BigRational> ExactLongRunProbability(
      size_t start, const std::function<bool(size_t)>& event,
      const CancellationToken* cancel = nullptr) const;

  /// Expected number of steps for a walk from `start` to first enter a
  /// state satisfying `target`. Returns 0 if start is a target; an error if
  /// the target set is reached with probability < 1 from some state that
  /// the walk can visit (the linear system is then singular or negative).
  StatusOr<double> ExpectedHittingTime(
      size_t start, const std::function<bool(size_t)>& target) const;

  /// Expected number of steps to first *return* to `state` (Kac's formula:
  /// equals 1/π(state) for irreducible chains — tested as a consistency
  /// check between the hitting-time and stationary solvers).
  StatusOr<double> ExpectedReturnTime(size_t state) const;

  // ---- Mixing ---------------------------------------------------------
  /// Total variation distance ½·Σ|aᵢ−bᵢ|.
  static double TotalVariation(const std::vector<double>& a,
                               const std::vector<double>& b);

  /// The paper's t(ε) from a fixed start state: the smallest t such that
  /// |Pr(S_t = i) − π_i| < ε for every state i. Requires ergodicity;
  /// ResourceExhausted if not reached within max_steps.
  StatusOr<size_t> MixingTimeFrom(size_t start, double epsilon,
                                  size_t max_steps = 1 << 20,
                                  const CancellationToken* cancel = nullptr)
      const;
  /// Worst case over all start states.
  StatusOr<size_t> MixingTime(double epsilon,
                              size_t max_steps = 1 << 20) const;

  /// Total-variation mixing time from a start state: smallest t with
  /// TV(P^t(start, ·), L) < ε, where L is the walk's long-run distribution:
  /// the stationary vector of each bottom SCC it reaches, weighted by the
  /// absorption probability (Thm 5.5; L = π on an ergodic chain). TV bounds
  /// the estimation bias of *any* event (sums of states), so this is the
  /// right burn-in for MCMC sampling of aggregate query events; the
  /// per-state max-norm variant above matches the paper's definition but
  /// can under-burn events spanning many states. FailedPrecondition when a
  /// reached bottom SCC is periodic (P^t then has no limit).
  StatusOr<size_t> TvMixingTimeFrom(size_t start, double epsilon,
                                    size_t max_steps = 1 << 20,
                                    const CancellationToken* cancel = nullptr)
      const;

 private:
  std::vector<uint32_t> offsets_ = {0};
  std::vector<Entry> entries_;
};

}  // namespace pfql

#endif  // PFQL_MARKOV_MARKOV_CHAIN_H_
