#include <gtest/gtest.h>

#include "markov/markov_chain.h"
#include "markov/test_chains.h"

namespace pfql {
namespace {

TEST(HittingTimeTest, ZeroWhenStartIsTarget) {
  const MarkovChain mc = Chain({{{1, BigRational(1)}}, {{1, BigRational(1)}}});
  auto t = mc.ExpectedHittingTime(0, [](size_t s) { return s == 0; });
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t.value(), 0.0);
}

TEST(HittingTimeTest, GeometricWait) {
  // 0 stays with prob 3/4, moves to 1 with prob 1/4: E[hit 1] = 4.
  const MarkovChain mc =
      Chain({{{0, BigRational(3, 4)}, {1, BigRational(1, 4)}},
             {{1, BigRational(1)}}});
  auto t = mc.ExpectedHittingTime(0, [](size_t s) { return s == 1; });
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(t.value(), 4.0, 1e-9);
}

TEST(HittingTimeTest, DeterministicChainLength) {
  // 0 -> 1 -> 2 -> 3 deterministically: E[hit 3] = 3.
  const MarkovChain mc = Chain({{{1, BigRational(1)}},
                                {{2, BigRational(1)}},
                                {{3, BigRational(1)}},
                                {{3, BigRational(1)}}});
  auto t = mc.ExpectedHittingTime(0, [](size_t s) { return s == 3; });
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(t.value(), 3.0, 1e-9);
}

TEST(HittingTimeTest, SymmetricWalkOnTriangle) {
  // Uniform walk on a complete 3-graph without self-loops: from any state,
  // E[hit a fixed other state] = 2 (success prob 1/2 per step).
  MarkovChain::Rows rows(3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      if (i != j) rows[i].emplace_back(j, BigRational(1, 2));
    }
  }
  const MarkovChain mc = Chain(std::move(rows));
  auto t = mc.ExpectedHittingTime(0, [](size_t s) { return s == 2; });
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(t.value(), 2.0, 1e-9);
}

TEST(HittingTimeTest, UnreachableTargetFails) {
  // 0 -> 0 forever; target 1 never reached: singular system.
  const MarkovChain mc = Chain({{{0, BigRational(1)}}, {{1, BigRational(1)}}});
  EXPECT_FALSE(
      mc.ExpectedHittingTime(0, [](size_t s) { return s == 1; }).ok());
}

TEST(HittingTimeTest, GamblersRuinQuadratic) {
  // Symmetric walk on 0..n with reflecting 0 and absorbing n:
  // E[hit n from 0] = n^2.
  for (size_t n : {2u, 4u, 8u}) {
    MarkovChain::Rows rows(n + 1);
    rows[0] = {{1, BigRational(1)}};
    for (size_t i = 1; i < n; ++i) {
      rows[i] = {{i - 1, BigRational(1, 2)}, {i + 1, BigRational(1, 2)}};
    }
    rows[n] = {{n, BigRational(1)}};
    const MarkovChain mc = Chain(std::move(rows));
    auto t = mc.ExpectedHittingTime(0, [&](size_t s) { return s == n; });
    ASSERT_TRUE(t.ok());
    EXPECT_NEAR(t.value(), static_cast<double>(n) * n, 1e-6) << n;
  }
}

// Expected steps to first return to `state`: one step, then the hitting
// time of `state` from wherever that step went.
StatusOr<double> ReturnTime(const MarkovChain& mc, size_t state) {
  double total = 1.0;
  for (const auto& [j, p] : mc.Row(state)) {
    PFQL_ASSIGN_OR_RETURN(
        double h,
        mc.ExpectedHittingTime(j, [&](size_t s) { return s == state; }));
    total += p.ToDouble() * h;
  }
  return total;
}

TEST(ReturnTimeTest, KacFormulaMatchesStationary) {
  // E[return to i] = 1/pi_i for irreducible chains.
  const MarkovChain mc =
      Chain({{{0, BigRational(1, 2)}, {1, BigRational(1, 2)}},
             {{2, BigRational(1)}},
             {{0, BigRational(2, 3)}, {2, BigRational(1, 3)}}});
  auto pi = mc.StationaryDistribution();
  ASSERT_TRUE(pi.ok());
  for (size_t s = 0; s < 3; ++s) {
    auto ret = ReturnTime(mc, s);
    ASSERT_TRUE(ret.ok()) << s;
    EXPECT_NEAR(ret.value(), 1.0 / pi.value()[s], 1e-9) << s;
  }
}

TEST(ReturnTimeTest, SelfLoopOnlyReturnsInOneStep) {
  const MarkovChain mc = Chain({{{0, BigRational(1)}}, {{1, BigRational(1)}}});
  auto ret = ReturnTime(mc, 0);
  ASSERT_TRUE(ret.ok());
  EXPECT_DOUBLE_EQ(ret.value(), 1.0);
}

TEST(HittingTimeTest, OutOfRangeStart) {
  const MarkovChain mc = Chain({{{0, BigRational(1)}}});
  EXPECT_FALSE(mc.ExpectedHittingTime(5, [](size_t) { return true; }).ok());
}

}  // namespace
}  // namespace pfql
