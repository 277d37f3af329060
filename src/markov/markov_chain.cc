#include "markov/markov_chain.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <type_traits>

#include "markov/matrix.h"

namespace pfql {

StatusOr<MarkovChain> MarkovChain::FromRows(Rows rows) {
  const size_t n = rows.size();
  size_t total = 0;
  for (const auto& row : rows) total += row.size();
  if (n >= UINT32_MAX || total >= UINT32_MAX) {
    return Status::ResourceExhausted(
        "chain too large for the uint32 CSR layout");
  }
  MarkovChain chain;
  chain.offsets_.reserve(n + 1);
  chain.entries_.reserve(total);
  // listed_in[t] is the last row that listed successor t, so a repeat
  // within one row finds that row there.
  std::vector<size_t> listed_in(n, SIZE_MAX);
  for (size_t s = 0; s < n; ++s) {
    BigRational sum;
    for (auto& [to, p] : rows[s]) {
      auto where = [&] {
        return "row " + std::to_string(s) + ", successor " +
               std::to_string(to);
      };
      if (p.IsNegative()) {
        return Status::InvalidArgument("negative probability in " + where());
      }
      if (to >= n) return Status::OutOfRange(where() + " is not a state");
      if (listed_in[to] == s) {
        return Status::InvalidArgument(where() + " is listed twice");
      }
      listed_in[to] = s;
      if (p.IsZero()) continue;
      sum += p;
      chain.entries_.emplace_back(static_cast<uint32_t>(to), std::move(p));
    }
    if (!sum.IsOne()) {
      return Status::InvalidArgument("row " + std::to_string(s) +
                                     " sums to " + sum.ToString() + " != 1");
    }
    chain.offsets_.push_back(static_cast<uint32_t>(chain.entries_.size()));
  }
  return chain;
}

std::vector<double> MarkovChain::StepDistribution(
    const std::vector<double>& v) const {
  std::vector<double> out(num_states(), 0.0);
  for (size_t i = 0; i < num_states(); ++i) {
    const double vi = i < v.size() ? v[i] : 0.0;
    if (vi == 0.0) continue;
    for (const auto& [j, p] : Row(i)) {
      out[j] += vi * p.ToDouble();
    }
  }
  return out;
}

SccDecomposition MarkovChain::DecomposeScc() const {
  // Iterative Tarjan.
  const size_t n = num_states();
  SccDecomposition out;
  out.component_of.assign(n, SIZE_MAX);

  std::vector<size_t> index(n, SIZE_MAX), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  size_t next_index = 0;

  struct Frame {
    size_t v;
    size_t edge;
  };
  for (size_t root = 0; root < n; ++root) {
    if (index[root] != SIZE_MAX) continue;
    std::vector<Frame> call_stack{{root, 0}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const size_t v = frame.v;
      const std::span<const Entry> row = Row(v);
      if (frame.edge < row.size()) {
        const size_t w = row[frame.edge].first;
        ++frame.edge;
        if (index[w] == SIZE_MAX) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const size_t parent = call_stack.back().v;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          std::vector<size_t> comp;
          for (;;) {
            size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            out.component_of[w] = out.components.size();
            comp.push_back(w);
            if (w == v) break;
          }
          std::sort(comp.begin(), comp.end());
          out.components.push_back(std::move(comp));
        }
      }
    }
  }

  // Condensation edges and bottom flags.
  std::set<std::pair<size_t, size_t>> edges;
  out.is_bottom.assign(out.components.size(), true);
  for (size_t v = 0; v < n; ++v) {
    for (const auto& [w, _] : Row(v)) {
      size_t cv = out.component_of[v], cw = out.component_of[w];
      if (cv != cw) {
        edges.insert({cv, cw});
        out.is_bottom[cv] = false;
      }
    }
  }
  out.dag_edges.assign(edges.begin(), edges.end());
  return out;
}

bool MarkovChain::IsIrreducible() const {
  return DecomposeScc().components.size() == 1;
}

size_t MarkovChain::PeriodOf(size_t state) const {
  // gcd of (level[u] + 1 - level[w]) over intra-SCC edges, levels from BFS.
  SccDecomposition scc = DecomposeScc();
  const size_t comp = scc.component_of[state];
  std::vector<int64_t> level(num_states(), -1);
  std::vector<size_t> queue{state};
  level[state] = 0;
  size_t head = 0;
  int64_t g = 0;
  while (head < queue.size()) {
    size_t v = queue[head++];
    for (const auto& [w, _] : Row(v)) {
      if (scc.component_of[w] != comp) continue;
      if (level[w] < 0) {
        level[w] = level[v] + 1;
        queue.push_back(w);
      }
      int64_t d = level[v] + 1 - level[w];
      g = std::gcd(g, d < 0 ? -d : d);
    }
  }
  return g == 0 ? 0 : static_cast<size_t>(g);
}

bool MarkovChain::IsAperiodic() const {
  SccDecomposition scc = DecomposeScc();
  for (const auto& comp : scc.components) {
    // Singleton components without a self-loop have no cycle; they impose
    // no periodicity constraint.
    if (comp.size() == 1) {
      bool has_self = false;
      for (const auto& [w, _] : Row(comp[0])) {
        if (w == comp[0]) has_self = true;
      }
      if (!has_self) continue;
    }
    if (PeriodOf(comp[0]) != 1) return false;
  }
  return true;
}

namespace {

template <typename F>
F FromRational(const BigRational& p) {
  if constexpr (std::is_same_v<F, double>) {
    return p.ToDouble();
  } else {
    return p;
  }
}

// πP = π, Σπ = 1 over field F on the closed class `states`, which must be
// irreducible (unchecked), with π indexed like `states`: solves
// (P^T - I) π = 0 with the last equation replaced by Σπ = 1. A closed
// class has no entries that leave it; any that do are skipped.
template <typename F>
StatusOr<std::vector<F>> StationaryImpl(const MarkovChain& chain,
                                        const std::vector<size_t>& states,
                                        const CancellationToken* cancel) {
  const size_t n = states.size();
  std::vector<size_t> local(chain.num_states(), SIZE_MAX);
  for (size_t i = 0; i < n; ++i) local[states[i]] = i;
  std::vector<std::vector<F>> a(n, std::vector<F>(n, F(0)));
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [j, p] : chain.Row(states[i])) {
      if (local[j] != SIZE_MAX) a[local[j]][i] += FromRational<F>(p);
    }
    a[i][i] -= F(1);
  }
  std::vector<F> b(n, F(0));
  for (size_t j = 0; j < n; ++j) a[n - 1][j] = F(1);
  b[n - 1] = F(1);
  return SolveLinearSystemField<F>(std::move(a), std::move(b), cancel);
}

// Absorption probabilities from `start` into each bottom SCC over field F.
template <typename F>
StatusOr<std::vector<F>> AbsorptionImpl(const MarkovChain& chain,
                                        const SccDecomposition& scc,
                                        size_t start,
                                        const CancellationToken* cancel) {
  const size_t num_comps = scc.components.size();
  std::vector<F> result(num_comps, F(0));

  // Transient states = states in non-bottom components.
  std::vector<size_t> transient;
  std::vector<size_t> transient_index(chain.num_states(), SIZE_MAX);
  for (size_t v = 0; v < chain.num_states(); ++v) {
    if (!scc.is_bottom[scc.component_of[v]]) {
      transient_index[v] = transient.size();
      transient.push_back(v);
    }
  }

  if (scc.is_bottom[scc.component_of[start]]) {
    result[scc.component_of[start]] = F(1);
    return result;
  }

  const size_t m = transient.size();
  for (size_t comp = 0; comp < num_comps; ++comp) {
    if (!scc.is_bottom[comp]) continue;
    // Solve (I - P_TT) h = P_TB(comp) * 1.
    std::vector<std::vector<F>> a(m, std::vector<F>(m, F(0)));
    std::vector<F> b(m, F(0));
    for (size_t ti = 0; ti < m; ++ti) {
      a[ti][ti] = F(1);
      for (const auto& [j, p] : chain.Row(transient[ti])) {
        F pj = FromRational<F>(p);
        if (transient_index[j] != SIZE_MAX) {
          a[ti][transient_index[j]] = a[ti][transient_index[j]] - pj;
        } else if (scc.component_of[j] == comp) {
          b[ti] = b[ti] + pj;
        }
      }
    }
    PFQL_ASSIGN_OR_RETURN(
        std::vector<F> h,
        SolveLinearSystemField<F>(std::move(a), std::move(b), cancel));
    result[comp] = h[transient_index[start]];
  }
  return result;
}

// Thm 5.5 from `start`: calls visit(states, weight, pi) for every bottom
// SCC the walk is absorbed into with probability weight > 0, where pi is
// that SCC's stationary distribution over its `states`.
template <typename F, typename Visit>
Status ForEachReachedBottom(const MarkovChain& chain, size_t start,
                            const CancellationToken* cancel, Visit visit) {
  if (start >= chain.num_states()) {
    return Status::OutOfRange("start out of range");
  }
  const SccDecomposition scc = chain.DecomposeScc();
  PFQL_ASSIGN_OR_RETURN(std::vector<F> absorb,
                        AbsorptionImpl<F>(chain, scc, start, cancel));
  for (size_t comp = 0; comp < scc.components.size(); ++comp) {
    if (!scc.is_bottom[comp] || absorb[comp] <= F(0)) continue;
    const std::vector<size_t>& states = scc.components[comp];
    PFQL_ASSIGN_OR_RETURN(std::vector<F> pi,
                          StationaryImpl<F>(chain, states, cancel));
    PFQL_RETURN_NOT_OK(visit(states, absorb[comp], pi));
  }
  return Status::OK();
}

template <typename F>
StatusOr<std::vector<F>> CheckedStationary(const MarkovChain& chain) {
  if (!chain.IsIrreducible()) {
    return Status::FailedPrecondition(
        "stationary distribution requires an irreducible chain; use "
        "LongRunProbability for the general case");
  }
  std::vector<size_t> all(chain.num_states());
  std::iota(all.begin(), all.end(), 0);
  return StationaryImpl<F>(chain, all, nullptr);
}

template <typename F>
StatusOr<F> LongRunImpl(const MarkovChain& chain, size_t start,
                        const std::function<bool(size_t)>& event,
                        const CancellationToken* cancel) {
  F total(0);
  PFQL_RETURN_NOT_OK(ForEachReachedBottom<F>(
      chain, start, cancel,
      [&](const std::vector<size_t>& states, const F& weight,
          const std::vector<F>& pi) {
        F mass(0);
        for (size_t local = 0; local < states.size(); ++local) {
          if (event(states[local])) mass += pi[local];
        }
        total += weight * mass;
        return Status::OK();
      }));
  return total;
}

}  // namespace

StatusOr<std::vector<double>> MarkovChain::StationaryDistribution() const {
  return CheckedStationary<double>(*this);
}

StatusOr<std::vector<BigRational>> MarkovChain::ExactStationaryDistribution()
    const {
  return CheckedStationary<BigRational>(*this);
}

StatusOr<std::vector<double>> MarkovChain::AbsorptionProbabilities(
    size_t start) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  return AbsorptionImpl<double>(*this, DecomposeScc(), start, nullptr);
}

StatusOr<double> MarkovChain::LongRunProbability(
    size_t start, const std::function<bool(size_t)>& event,
    const CancellationToken* cancel) const {
  return LongRunImpl<double>(*this, start, event, cancel);
}

StatusOr<BigRational> MarkovChain::ExactLongRunProbability(
    size_t start, const std::function<bool(size_t)>& event,
    const CancellationToken* cancel) const {
  return LongRunImpl<BigRational>(*this, start, event, cancel);
}

StatusOr<double> MarkovChain::ExpectedHittingTime(
    size_t start, const std::function<bool(size_t)>& target) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  if (target(start)) return 0.0;
  // h_i = 0 for targets; h_i = 1 + sum_j P_ij h_j otherwise. Solve over the
  // non-target states: (I - P_NN) h_N = 1.
  std::vector<size_t> non_target;
  std::vector<size_t> local(num_states(), SIZE_MAX);
  for (size_t v = 0; v < num_states(); ++v) {
    if (!target(v)) {
      local[v] = non_target.size();
      non_target.push_back(v);
    }
  }
  const size_t m = non_target.size();
  std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
  std::vector<double> b(m, 1.0);
  for (size_t li = 0; li < m; ++li) {
    a[li][li] = 1.0;
    for (const auto& [j, p] : Row(non_target[li])) {
      if (local[j] != SIZE_MAX) {
        a[li][local[j]] -= p.ToDouble();
      }
    }
  }
  PFQL_ASSIGN_OR_RETURN(std::vector<double> h,
                        SolveLinearSystemField<double>(std::move(a),
                                                       std::move(b)));
  const double result = h[local[start]];
  if (!(result >= 0.0) || !std::isfinite(result)) {
    return Status::FailedPrecondition(
        "target not reached almost surely from the start state");
  }
  return result;
}

double MarkovChain::TotalVariation(const std::vector<double>& a,
                                   const std::vector<double>& b) {
  double sum = 0.0;
  const size_t n = std::max(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    double ai = i < a.size() ? a[i] : 0.0;
    double bi = i < b.size() ? b[i] : 0.0;
    sum += std::fabs(ai - bi);
  }
  return sum / 2.0;
}

namespace {

double MaxNormDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

// The stepping loop of both mixing times: the smallest t ≤ max_steps with
// distance(P^t(start, ·), target) < epsilon.
StatusOr<size_t> StepsUntilWithin(
    const MarkovChain& chain, size_t start, const std::vector<double>& target,
    double epsilon, size_t max_steps,
    double (*distance)(const std::vector<double>&, const std::vector<double>&),
    const CancellationToken* cancel) {
  std::vector<double> dist(chain.num_states(), 0.0);
  dist[start] = 1.0;
  CancelPoller poller(cancel);
  for (size_t t = 0; t <= max_steps; ++t) {
    PFQL_RETURN_NOT_OK(poller.Tick());
    if (distance(dist, target) < epsilon) return t;
    dist = chain.StepDistribution(dist);
  }
  return Status::ResourceExhausted("chain did not mix within " +
                                   std::to_string(max_steps) + " steps");
}

// The paper's t(ε) is defined against π of an ergodic chain.
StatusOr<std::vector<double>> ErgodicStationary(const MarkovChain& chain) {
  if (!chain.IsErgodic()) {
    return Status::FailedPrecondition("mixing time requires an ergodic chain");
  }
  return chain.StationaryDistribution();
}

}  // namespace

StatusOr<size_t> MarkovChain::MixingTimeFrom(
    size_t start, double epsilon, size_t max_steps,
    const CancellationToken* cancel) const {
  if (start >= num_states()) return Status::OutOfRange("start out of range");
  PFQL_ASSIGN_OR_RETURN(std::vector<double> pi, ErgodicStationary(*this));
  return StepsUntilWithin(*this, start, pi, epsilon, max_steps,
                          &MaxNormDistance, cancel);
}

StatusOr<size_t> MarkovChain::TvMixingTimeFrom(
    size_t start, double epsilon, size_t max_steps,
    const CancellationToken* cancel) const {
  std::vector<double> limit(num_states(), 0.0);
  PFQL_RETURN_NOT_OK(ForEachReachedBottom<double>(
      *this, start, cancel,
      [&](const std::vector<size_t>& states, double weight,
          const std::vector<double>& pi) {
        if (PeriodOf(states[0]) != 1) {
          return Status::FailedPrecondition(
              "mixing time requires the walk's bottom components to be "
              "aperiodic");
        }
        for (size_t local = 0; local < states.size(); ++local) {
          limit[states[local]] = weight * pi[local];
        }
        return Status::OK();
      }));
  return StepsUntilWithin(*this, start, limit, epsilon, max_steps,
                          &TotalVariation, cancel);
}

}  // namespace pfql
