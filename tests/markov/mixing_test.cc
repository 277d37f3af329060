#include <gtest/gtest.h>

#include "markov/markov_chain.h"
#include "markov/test_chains.h"

namespace pfql {
namespace {

MarkovChain LazyCycle(size_t n) {
  MarkovChain::Rows rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = {{i, BigRational(1, 2)}, {(i + 1) % n, BigRational(1, 2)}};
  }
  return Chain(std::move(rows));
}

TEST(TvMixingTest, UniformChainMixesInstantly) {
  MarkovChain::Rows rows(4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) rows[i].emplace_back(j, BigRational(1, 4));
  }
  auto t = Chain(std::move(rows)).TvMixingTimeFrom(0, 0.01);
  ASSERT_TRUE(t.ok());
  EXPECT_LE(t.value(), 1u);
}

TEST(TvMixingTest, TvAtLeastMaxNorm) {
  // TV distance dominates half the max-norm, so the TV mixing time is at
  // least the max-norm one at matched epsilon.
  MarkovChain mc = LazyCycle(12);
  auto tv = mc.TvMixingTimeFrom(0, 0.05);
  auto mx = mc.MixingTimeFrom(0, 0.05);
  ASSERT_TRUE(tv.ok());
  ASSERT_TRUE(mx.ok());
  EXPECT_GE(tv.value(), mx.value());
}

TEST(TvMixingTest, GrowsWithCycleLength) {
  auto t8 = LazyCycle(8).TvMixingTimeFrom(0, 0.05);
  auto t16 = LazyCycle(16).TvMixingTimeFrom(0, 0.05);
  ASSERT_TRUE(t8.ok());
  ASSERT_TRUE(t16.ok());
  EXPECT_GT(t16.value(), t8.value());
}

TEST(TvMixingTest, RequiresErgodicity) {
  const MarkovChain periodic =
      Chain({{{1, BigRational(1)}}, {{0, BigRational(1)}}});
  EXPECT_FALSE(periodic.TvMixingTimeFrom(0, 0.01).ok());
  // A transient start absorbed into that 2-cycle has no limit either.
  const MarkovChain feeding = Chain(
      {{{1, BigRational(1)}}, {{2, BigRational(1)}}, {{1, BigRational(1)}}});
  auto t = feeding.TvMixingTimeFrom(0, 0.01);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TvMixingTest, BurnInBoundsAnyEventBias) {
  // After the TV mixing time, the probability of ANY state set is within
  // epsilon of its stationary mass.
  MarkovChain mc = LazyCycle(10);
  const double eps = 0.02;
  auto t = mc.TvMixingTimeFrom(0, eps);
  ASSERT_TRUE(t.ok());
  auto pi = mc.StationaryDistribution();
  ASSERT_TRUE(pi.ok());
  std::vector<double> start(10, 0.0);
  start[0] = 1.0;
  auto dist = mc.DistributionAfter(start, t.value());
  ASSERT_TRUE(dist.ok());
  // Check a handful of aggregate events (all 2^10 would be overkill).
  for (uint32_t mask : {0x3u, 0x155u, 0x2AAu, 0x1Fu, 0x3FFu}) {
    double p_event = 0.0, pi_event = 0.0;
    for (size_t s = 0; s < 10; ++s) {
      if ((mask >> s) & 1) {
        p_event += dist.value()[s];
        pi_event += pi.value()[s];
      }
    }
    EXPECT_NEAR(p_event, pi_event, eps) << mask;
  }
}

}  // namespace
}  // namespace pfql
