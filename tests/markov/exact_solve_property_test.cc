// The exact stationary and absorption solves (sparse GTH state reduction)
// against a dense Gauss–Jordan oracle over BigRational, on seeded chains:
// periodic cycles, barbells, and 1–4 bottom classes behind transient
// prefixes, with self-loops and integer weights 1..9. Exact rationals are
// canonical, so every answer must match the oracle exactly, from every
// start state.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "markov/markov_chain.h"
#include "markov/matrix.h"
#include "markov/test_chains.h"
#include "util/random.h"

namespace pfql {
namespace {

// A chain under construction: each edge carries an integer weight 1..9,
// and each row is normalized by its total when built.
class ChainBuilder {
 public:
  explicit ChainBuilder(Rng* rng) : rng_(rng) {}

  size_t AddState() {
    weights_.emplace_back();
    return weights_.size() - 1;
  }
  size_t num_states() const { return weights_.size(); }

  void Edge(size_t from, size_t to) {
    weights_[from][to] += 1 + static_cast<int>(rng_->NextIndex(9));
  }
  // A self-loop on about a third of the states.
  void MaybeSelfLoop(size_t state) {
    if (rng_->NextIndex(3) == 0) Edge(state, state);
  }

  MarkovChain Build() const {
    MarkovChain::Rows rows;
    for (const auto& row : weights_) {
      int total = 0;
      for (const auto& [to, w] : row) total += w;
      auto& out = rows.emplace_back();
      for (const auto& [to, w] : row) {
        out.emplace_back(to, BigRational(w, total));
      }
    }
    return Chain(std::move(rows));
  }

 private:
  Rng* rng_;
  std::vector<std::map<size_t, int>> weights_;
};

// `period` layers of 1–3 states, each state stepping to every state of
// the next layer: irreducible with exactly that period.
void AddCycle(ChainBuilder* b, Rng* rng, size_t period) {
  std::vector<std::vector<size_t>> layers(period);
  for (auto& layer : layers) {
    const size_t width = 1 + rng->NextIndex(3);
    for (size_t i = 0; i < width; ++i) layer.push_back(b->AddState());
  }
  for (size_t l = 0; l < period; ++l) {
    for (size_t from : layers[l]) {
      for (size_t to : layers[(l + 1) % period]) b->Edge(from, to);
    }
  }
}

// A clique of 2–4 states, some with self-loops; returns its states.
std::vector<size_t> AddClique(ChainBuilder* b, Rng* rng) {
  std::vector<size_t> states;
  const size_t size = 2 + rng->NextIndex(3);
  for (size_t i = 0; i < size; ++i) states.push_back(b->AddState());
  for (size_t from : states) {
    for (size_t to : states) {
      if (from != to) b->Edge(from, to);
    }
    b->MaybeSelfLoop(from);
  }
  return states;
}

// Two cliques joined both ways by one bridge.
MarkovChain Barbell(Rng* rng) {
  ChainBuilder b(rng);
  const std::vector<size_t> left = AddClique(&b, rng);
  const std::vector<size_t> right = AddClique(&b, rng);
  b.Edge(left.back(), right.front());
  b.Edge(right.front(), left.back());
  return b.Build();
}

MarkovChain PeriodicCycle(Rng* rng, size_t period) {
  ChainBuilder b(rng);
  AddCycle(&b, rng, period);
  return b.Build();
}

// 1–5 transient states, each stepping forward (the last into a bottom
// class) plus a random extra edge, then `bottoms` closed classes: an
// absorbing state, a period-2 or period-3 cycle, or a clique.
MarkovChain TransientPrefix(Rng* rng, size_t bottoms) {
  ChainBuilder b(rng);
  const size_t transient = 1 + rng->NextIndex(5);
  for (size_t i = 0; i < transient; ++i) b.AddState();
  std::vector<size_t> entries;  // one state of each bottom class
  for (size_t c = 0; c < bottoms; ++c) {
    entries.push_back(b.num_states());
    switch (rng->NextIndex(4)) {
      case 0:
        b.Edge(b.AddState(), entries.back());
        break;
      case 1:
        AddCycle(&b, rng, 2);
        break;
      case 2:
        AddCycle(&b, rng, 3);
        break;
      default:
        AddClique(&b, rng);
        break;
    }
  }
  for (size_t i = 0; i < transient; ++i) {
    b.Edge(i, i + 1 < transient ? i + 1
                                : entries[rng->NextIndex(entries.size())]);
    b.Edge(i, rng->NextIndex(b.num_states()));
    b.MaybeSelfLoop(i);
  }
  // Every bottom class reachable from the prefix.
  for (size_t entry : entries) b.Edge(rng->NextIndex(transient), entry);
  return b.Build();
}

// The dense oracle: limit[s][t], the long-run fraction of time a walk from
// s spends in t, from Gauss–Jordan solves over BigRational: each bottom
// SCC's πP = π with Σπ = 1, and (I - P_TT) h = P_TB 1 for absorption.
std::vector<std::vector<BigRational>> DenseLongRun(const MarkovChain& chain) {
  const size_t n = chain.num_states();
  const SccDecomposition scc = chain.DecomposeScc();
  std::vector<std::vector<BigRational>> limit(n,
                                              std::vector<BigRational>(n));
  std::vector<size_t> transient;
  std::vector<size_t> transient_index(n, SIZE_MAX);
  for (size_t v = 0; v < n; ++v) {
    if (!scc.is_bottom[scc.component_of[v]]) {
      transient_index[v] = transient.size();
      transient.push_back(v);
    }
  }
  for (size_t comp = 0; comp < scc.components.size(); ++comp) {
    if (!scc.is_bottom[comp]) continue;
    const std::vector<size_t>& states = scc.components[comp];
    const size_t m = states.size();
    std::vector<size_t> local(n, SIZE_MAX);
    for (size_t i = 0; i < m; ++i) local[states[i]] = i;
    std::vector<std::vector<BigRational>> a(m, std::vector<BigRational>(m));
    for (size_t i = 0; i < m; ++i) {
      for (const auto& [j, p] : chain.Row(states[i])) a[local[j]][i] += p;
      a[i][i] -= BigRational(1);
    }
    std::vector<BigRational> b(m);
    for (size_t j = 0; j < m; ++j) a[m - 1][j] = BigRational(1);
    b[m - 1] = BigRational(1);
    auto pi = SolveLinearSystemField<BigRational>(std::move(a), std::move(b));
    EXPECT_TRUE(pi.ok()) << pi.status();
    if (!pi.ok()) return limit;
    for (size_t s : states) {
      for (size_t t = 0; t < m; ++t) limit[s][states[t]] = (*pi)[t];
    }
    if (transient.empty()) continue;
    const size_t k = transient.size();
    std::vector<std::vector<BigRational>> ta(k, std::vector<BigRational>(k));
    std::vector<BigRational> tb(k);
    for (size_t i = 0; i < k; ++i) {
      ta[i][i] += BigRational(1);
      for (const auto& [j, p] : chain.Row(transient[i])) {
        if (transient_index[j] != SIZE_MAX) {
          ta[i][transient_index[j]] -= p;
        } else if (scc.component_of[j] == comp) {
          tb[i] += p;
        }
      }
    }
    auto h = SolveLinearSystemField<BigRational>(std::move(ta), std::move(tb));
    EXPECT_TRUE(h.ok()) << h.status();
    if (!h.ok()) return limit;
    for (size_t i = 0; i < k; ++i) {
      for (size_t t = 0; t < m; ++t) {
        limit[transient[i]][states[t]] = (*h)[i] * (*pi)[t];
      }
    }
  }
  return limit;
}

// Every start state and every one-state event, plus, on an irreducible
// chain, the stationary distribution itself.
void ExpectMatchesOracle(const MarkovChain& chain) {
  const size_t n = chain.num_states();
  const std::vector<std::vector<BigRational>> limit = DenseLongRun(chain);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      auto p = chain.ExactLongRunProbability(
          s, [t](size_t state) { return state == t; });
      ASSERT_TRUE(p.ok()) << p.status();
      EXPECT_EQ(*p, limit[s][t]) << "from " << s << " in " << t;
    }
  }
  if (!chain.IsIrreducible()) return;
  auto pi = chain.ExactStationaryDistribution();
  ASSERT_TRUE(pi.ok()) << pi.status();
  ASSERT_EQ(pi->size(), n);
  for (size_t t = 0; t < n; ++t) EXPECT_EQ((*pi)[t], limit[0][t]) << t;
}

TEST(ExactSolvePropertyTest, PeriodicCyclesMatchTheDenseOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (size_t period : {2, 3, 6}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", period " +
                   std::to_string(period));
      Rng rng(seed * 101 + period);
      const MarkovChain chain = PeriodicCycle(&rng, period);
      ASSERT_EQ(chain.PeriodOf(0), period);
      ExpectMatchesOracle(chain);
    }
  }
}

TEST(ExactSolvePropertyTest, BarbellsMatchTheDenseOracle) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 211);
    const MarkovChain chain = Barbell(&rng);
    ASSERT_TRUE(chain.IsIrreducible());
    ExpectMatchesOracle(chain);
  }
}

TEST(ExactSolvePropertyTest, BottomClassesBehindTransientPrefixes) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (size_t bottoms = 1; bottoms <= 4; ++bottoms) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(bottoms) + " bottom classes");
      Rng rng(seed * 307 + bottoms);
      const MarkovChain chain = TransientPrefix(&rng, bottoms);
      const SccDecomposition scc = chain.DecomposeScc();
      size_t closed = 0;
      for (bool bottom : scc.is_bottom) closed += bottom ? 1 : 0;
      ASSERT_EQ(closed, bottoms);
      ExpectMatchesOracle(chain);
    }
  }
}

}  // namespace
}  // namespace pfql
