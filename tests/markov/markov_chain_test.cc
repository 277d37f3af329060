#include "markov/markov_chain.h"

#include <gtest/gtest.h>

#include "markov/compiled_chain.h"
#include "markov/test_chains.h"
#include "util/cancellation.h"

namespace pfql {
namespace {

// Two-state chain: 0 -> 1 w.p. 1/3 (stays w.p. 2/3); 1 -> 0 w.p. 1/2.
MarkovChain TwoState() {
  return Chain({{{0, BigRational(2, 3)}, {1, BigRational(1, 3)}},
                {{0, BigRational(1, 2)}, {1, BigRational(1, 2)}}});
}

// Directed 3-cycle (periodic with period 3).
MarkovChain Cycle3() {
  return Chain({{{1, BigRational(1)}},
                {{2, BigRational(1)}},
                {{0, BigRational(1)}}});
}

// Reducible: 0 -> {1, 2} each w.p. 1/2; 1 and 2 absorbing.
MarkovChain Absorbing() {
  return Chain({{{1, BigRational(1, 2)}, {2, BigRational(1, 2)}},
                {{1, BigRational(1)}},
                {{2, BigRational(1)}}});
}

// FromRows is the one way to build a chain, and it validates every row.
TEST(MarkovChainTest, ValidateRejectsBadRows) {
  const BigRational half(1, 2);
  auto code = [](MarkovChain::Rows rows) {
    return MarkovChain::FromRows(std::move(rows)).status().code();
  };
  EXPECT_EQ(code({{{0, BigRational(3, 2)}, {1, BigRational(-1, 2)}},
                  {{1, BigRational(1)}}}),
            StatusCode::kInvalidArgument);  // negative probability
  EXPECT_EQ(code({{{0, half}, {5, half}}, {{1, BigRational(1)}}}),
            StatusCode::kOutOfRange);  // successor 5 is not a state
  EXPECT_EQ(code({{{1, half}, {1, half}}, {{1, BigRational(1)}}}),
            StatusCode::kInvalidArgument);  // successor 1 listed twice
  EXPECT_EQ(code({{{0, half}, {1, half}, {1, BigRational(0)}},
                  {{1, BigRational(1)}}}),
            StatusCode::kInvalidArgument);  // even with weight zero
  EXPECT_EQ(code({{{1, half}}, {{1, BigRational(1)}}}),
            StatusCode::kInvalidArgument);  // row 0 sums to 1/2
  EXPECT_EQ(code({{{0, BigRational(1)}}, {}}),
            StatusCode::kInvalidArgument);  // row 1 sums to 0
  EXPECT_EQ(code({{{0, half}, {1, BigRational(2, 3)}}, {{1, BigRational(1)}}}),
            StatusCode::kInvalidArgument);  // row 0 sums to 7/6
  auto message = MarkovChain::FromRows({{{1, half}}, {{1, BigRational(1)}}});
  EXPECT_EQ(message.status().message(), "row 0 sums to 1/2 != 1");
}

TEST(MarkovChainTest, FromRowsDropsZeroEntriesAndKeepsOrder) {
  const MarkovChain mc = Chain({{{1, BigRational(1, 3)},
                                 {2, BigRational(0)},
                                 {0, BigRational(2, 3)}},
                                {{1, BigRational(1)}},
                                {{0, BigRational(0)}, {2, BigRational(1)}}});
  EXPECT_EQ(mc.num_states(), 3u);
  EXPECT_EQ(mc.num_entries(), 4u);
  EXPECT_EQ(mc.offsets(), (std::vector<uint32_t>{0, 2, 3, 4}));
  ASSERT_EQ(mc.Row(0).size(), 2u);
  EXPECT_EQ(mc.Row(0)[0], MarkovChain::Entry(1, BigRational(1, 3)));
  EXPECT_EQ(mc.Row(0)[1], MarkovChain::Entry(0, BigRational(2, 3)));
  EXPECT_EQ(mc.Row(2)[0], MarkovChain::Entry(2, BigRational(1)));
}

TEST(MarkovChainTest, DefaultChainIsEmpty) {
  const MarkovChain empty;
  EXPECT_EQ(empty.num_states(), 0u);
  EXPECT_EQ(empty.num_entries(), 0u);
  auto built = MarkovChain::FromRows({});
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(built->num_states(), 0u);
}

TEST(MarkovChainTest, SccOfIrreducibleChainIsSingle) {
  auto scc = TwoState().DecomposeScc();
  EXPECT_EQ(scc.components.size(), 1u);
  EXPECT_TRUE(scc.is_bottom[0]);
  EXPECT_TRUE(TwoState().IsIrreducible());
}

TEST(MarkovChainTest, SccOfAbsorbingChain) {
  auto scc = Absorbing().DecomposeScc();
  EXPECT_EQ(scc.components.size(), 3u);
  size_t bottoms = 0;
  for (bool b : scc.is_bottom) {
    if (b) ++bottoms;
  }
  EXPECT_EQ(bottoms, 2u);
  EXPECT_FALSE(scc.is_bottom[scc.component_of[0]]);
  EXPECT_FALSE(Absorbing().IsIrreducible());
}

TEST(MarkovChainTest, PeriodDetection) {
  EXPECT_EQ(Cycle3().PeriodOf(0), 3u);
  EXPECT_FALSE(Cycle3().IsAperiodic());
  EXPECT_EQ(TwoState().PeriodOf(0), 1u);
  EXPECT_TRUE(TwoState().IsAperiodic());
  EXPECT_TRUE(TwoState().IsErgodic());
  EXPECT_FALSE(Cycle3().IsErgodic());
}

TEST(MarkovChainTest, StationaryDistributionTwoState) {
  // pi = (p10, p01)/(p01+p10) = (1/2, 1/3)/(5/6) = (3/5, 2/5).
  auto pi = TwoState().StationaryDistribution();
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR(pi.value()[0], 0.6, 1e-12);
  EXPECT_NEAR(pi.value()[1], 0.4, 1e-12);
}

TEST(MarkovChainTest, ExactStationaryDistribution) {
  auto pi = TwoState().ExactStationaryDistribution();
  ASSERT_TRUE(pi.ok());
  EXPECT_EQ(pi.value()[0], BigRational(3, 5));
  EXPECT_EQ(pi.value()[1], BigRational(2, 5));
}

TEST(MarkovChainTest, StationaryOfPeriodicChainIsCesaroLimit) {
  // The 3-cycle has uniform stationary distribution even though it never
  // converges pointwise — the linear solve gives the Cesàro limit.
  auto pi = Cycle3().ExactStationaryDistribution();
  ASSERT_TRUE(pi.ok());
  for (const auto& p : pi.value()) {
    EXPECT_EQ(p, BigRational(1, 3));
  }
}

// The one power iteration is CompiledChain::Stationary, which iterates
// over 1/65535-quantized rows. Thirds and fifths are exact in those units
// (65535 = 3·5·17·257), so on these chains it sees P itself.
StatusOr<CompiledChain::StationaryResult> StationaryByIteration(
    const MarkovChain& mc, double tolerance) {
  PFQL_ASSIGN_OR_RETURN(CompiledChain compiled, CompiledChain::Compile(mc));
  return compiled.Stationary(100000, tolerance);
}

TEST(MarkovChainTest, StationaryByIterationMatchesSolve) {
  // 0 -> 1 w.p. 1/3, 1 -> 0 w.p. 1/5: pi = (3/8, 5/8).
  const MarkovChain mc =
      Chain({{{0, BigRational(2, 3)}, {1, BigRational(1, 3)}},
             {{0, BigRational(1, 5)}, {1, BigRational(4, 5)}}});
  auto direct = mc.StationaryDistribution();
  auto iterated = StationaryByIteration(mc, 1e-12);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(iterated.ok()) << iterated.status().ToString();
  EXPECT_NEAR(direct.value()[0], iterated->pi[0], 1e-6);
  EXPECT_NEAR(direct.value()[1], iterated->pi[1], 1e-6);
}

TEST(MarkovChainTest, StationaryByIterationHandlesPeriodic) {
  auto iterated = StationaryByIteration(Cycle3(), 1e-10);
  ASSERT_TRUE(iterated.ok()) << iterated.status().ToString();
  for (double p : iterated->pi) {
    EXPECT_NEAR(p, 1.0 / 3, 1e-6);
  }
}

TEST(MarkovChainTest, StationaryRequiresIrreducible) {
  EXPECT_FALSE(Absorbing().StationaryDistribution().ok());
  EXPECT_FALSE(Absorbing().ExactStationaryDistribution().ok());
}

TEST(MarkovChainTest, DistributionAfterSteps) {
  const std::vector<double> d = TwoState().StepDistribution({1.0, 0.0});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_NEAR(d[0], 2.0 / 3, 1e-12);
  EXPECT_NEAR(d[1], 1.0 / 3, 1e-12);
}

TEST(MarkovChainTest, AbsorptionProbabilitiesSplitEvenly) {
  auto absorb = Absorbing().AbsorptionProbabilities(0);
  ASSERT_TRUE(absorb.ok());
  auto scc = Absorbing().DecomposeScc();
  double total = 0;
  for (size_t c = 0; c < scc.components.size(); ++c) {
    if (scc.is_bottom[c]) {
      EXPECT_NEAR((*absorb)[c], 0.5, 1e-12);
      total += (*absorb)[c];
    } else {
      EXPECT_DOUBLE_EQ((*absorb)[c], 0.0);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MarkovChainTest, ExactAbsorptionFromBottomState) {
  // A walk that starts in a bottom state stays there.
  auto p = Absorbing().ExactLongRunProbability(
      1, [](size_t s) { return s == 1; });
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IsOne());
}

TEST(MarkovChainTest, LongRunProbabilityIrreducible) {
  // Event: in state 1. Long-run = pi_1 = 2/5.
  auto p = TwoState().ExactLongRunProbability(
      0, [](size_t s) { return s == 1; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(2, 5));
}

TEST(MarkovChainTest, LongRunProbabilityReducible) {
  // From 0: absorbed in 1 or 2 with prob 1/2 each. Event: state == 1.
  auto p = Absorbing().ExactLongRunProbability(
      0, [](size_t s) { return s == 1; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(1, 2));
  auto pd = Absorbing().LongRunProbability(0, [](size_t s) { return s == 1; });
  ASSERT_TRUE(pd.ok());
  EXPECT_NEAR(pd.value(), 0.5, 1e-12);
}

TEST(MarkovChainTest, LongRunChainedTransients) {
  // 0 -> 1 -> {2 absorbing, 3 absorbing}; multi-level transient DAG.
  const MarkovChain mc =
      Chain({{{1, BigRational(1)}},
             {{2, BigRational(1, 4)}, {3, BigRational(3, 4)}},
             {{2, BigRational(1)}},
             {{3, BigRational(1)}}});
  auto p = mc.ExactLongRunProbability(0, [](size_t s) { return s == 3; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(3, 4));
}

TEST(MarkovChainTest, ExactLongRunProbabilityHonoursCancellation) {
  CancellationToken token;
  token.Cancel();
  auto p = TwoState().ExactLongRunProbability(
      0, [](size_t s) { return s == 1; }, &token);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kCancelled);
  auto t = TwoState().TvMixingTimeFrom(0, 0.01, 1 << 20, &token);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kCancelled);
}

TEST(MarkovChainTest, TotalVariation) {
  EXPECT_DOUBLE_EQ(MarkovChain::TotalVariation({1, 0}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(MarkovChain::TotalVariation({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(MarkovChain::TotalVariation({0.75, 0.25}, {0.25, 0.75}),
                   0.5);
}

TEST(MarkovChainTest, MixingTimeCompleteGraphIsFast) {
  // Uniform 4-state chain mixes in one step.
  MarkovChain::Rows rows(4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) rows[i].emplace_back(j, BigRational(1, 4));
  }
  auto t = Chain(std::move(rows)).MixingTimeFrom(0, 0.01);
  ASSERT_TRUE(t.ok());
  EXPECT_LE(t.value(), 1u);
}

TEST(MarkovChainTest, MixingTimeRequiresErgodic) {
  EXPECT_FALSE(Cycle3().MixingTimeFrom(0, 0.01).ok());
  EXPECT_FALSE(Absorbing().MixingTimeFrom(0, 0.01).ok());
}

TEST(MarkovChainTest, TvMixingTimeFromTransientStartTargetsLongRunLimit) {
  // From 0 the walk's limit is (0, 1/2, 1/2), reached after one step; the
  // chain is not ergodic, so the max-norm t(ε) still refuses it.
  auto t = Absorbing().TvMixingTimeFrom(0, 0.01);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t.value(), 1u);
  EXPECT_FALSE(Absorbing().MixingTimeFrom(0, 0.01).ok());
}

TEST(MarkovChainTest, MixingTimeLazyCycleGrowsWithSize) {
  auto lazy_cycle = [](size_t n) {
    MarkovChain::Rows rows(n);
    for (size_t i = 0; i < n; ++i) {
      rows[i] = {{i, BigRational(1, 2)}, {(i + 1) % n, BigRational(1, 2)}};
    }
    return Chain(std::move(rows));
  };
  auto t4 = lazy_cycle(4).MixingTimeFrom(0, 0.05);
  auto t12 = lazy_cycle(12).MixingTimeFrom(0, 0.05);
  ASSERT_TRUE(t4.ok());
  ASSERT_TRUE(t12.ok());
  EXPECT_GT(t12.value(), t4.value());
}

}  // namespace
}  // namespace pfql
