#include "markov/markov_chain.h"

#include <gtest/gtest.h>

#include "markov/compiled_chain.h"
#include "util/cancellation.h"

namespace pfql {
namespace {

// Two-state chain: 0 -> 1 w.p. 1/3 (stays w.p. 2/3); 1 -> 0 w.p. 1/2.
MarkovChain TwoState() {
  MarkovChain mc(2);
  EXPECT_TRUE(mc.AddTransition(0, 0, BigRational(2, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 1, BigRational(1, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 0, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 1, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.Validate().ok());
  return mc;
}

// Directed 3-cycle (periodic with period 3).
MarkovChain Cycle3() {
  MarkovChain mc(3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(mc.AddTransition(i, (i + 1) % 3, BigRational(1)).ok());
  }
  return mc;
}

// Reducible: 0 -> {1, 2} each w.p. 1/2; 1 and 2 absorbing.
MarkovChain Absorbing() {
  MarkovChain mc(3);
  EXPECT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 2, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 1, BigRational(1)).ok());
  EXPECT_TRUE(mc.AddTransition(2, 2, BigRational(1)).ok());
  return mc;
}

TEST(MarkovChainTest, ValidateRejectsBadRows) {
  MarkovChain mc(2);
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  EXPECT_FALSE(mc.Validate().ok());  // row 0 sums to 1/2, row 1 to 0
  EXPECT_FALSE(mc.AddTransition(0, 5, BigRational(1, 2)).ok());
  EXPECT_FALSE(mc.AddTransition(0, 1, BigRational(-1, 2)).ok());
}

TEST(MarkovChainTest, AddTransitionAccumulates) {
  MarkovChain mc(2);
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 1, BigRational(1)).ok());
  EXPECT_TRUE(mc.Validate().ok());
  ASSERT_EQ(mc.Row(0).size(), 1u);
  EXPECT_TRUE(mc.Row(0)[0].second.IsOne());
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
  PFQL_ASSIGN_OR_RETURN(
      CompiledChain compiled,
      CompiledChain::Compile(mc, std::vector<uint64_t>(mc.num_states(), 0)));
  return compiled.Stationary(100000, tolerance);
}

TEST(MarkovChainTest, StationaryByIterationMatchesSolve) {
  // 0 -> 1 w.p. 1/3, 1 -> 0 w.p. 1/5: pi = (3/8, 5/8).
  MarkovChain mc(2);
  ASSERT_TRUE(mc.AddTransition(0, 0, BigRational(2, 3)).ok());
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 3)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 0, BigRational(1, 5)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 1, BigRational(4, 5)).ok());
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
  auto d = TwoState().DistributionAfter({1.0, 0.0}, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value()[0], 2.0 / 3, 1e-12);
  EXPECT_NEAR(d.value()[1], 1.0 / 3, 1e-12);
  auto d0 = TwoState().DistributionAfter({1.0, 0.0}, 0);
  ASSERT_TRUE(d0.ok());
  EXPECT_DOUBLE_EQ(d0.value()[0], 1.0);
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
  auto absorb = Absorbing().ExactAbsorptionProbabilities(1);
  ASSERT_TRUE(absorb.ok());
  auto scc = Absorbing().DecomposeScc();
  EXPECT_TRUE((*absorb)[scc.component_of[1]].IsOne());
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
  MarkovChain mc(4);
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 2, BigRational(1, 4)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 3, BigRational(3, 4)).ok());
  ASSERT_TRUE(mc.AddTransition(2, 2, BigRational(1)).ok());
  ASSERT_TRUE(mc.AddTransition(3, 3, BigRational(1)).ok());
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
  MarkovChain mc(4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      ASSERT_TRUE(mc.AddTransition(i, j, BigRational(1, 4)).ok());
    }
  }
  auto t = mc.MixingTime(0.01);
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
    MarkovChain mc(n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(mc.AddTransition(i, i, BigRational(1, 2)).ok());
      EXPECT_TRUE(mc.AddTransition(i, (i + 1) % n, BigRational(1, 2)).ok());
    }
    return mc;
  };
  auto t4 = lazy_cycle(4).MixingTimeFrom(0, 0.05);
  auto t12 = lazy_cycle(12).MixingTimeFrom(0, 0.05);
  ASSERT_TRUE(t4.ok());
  ASSERT_TRUE(t12.ok());
  EXPECT_GT(t12.value(), t4.value());
}

}  // namespace
}  // namespace pfql
