#include "eval/noninflationary.h"

#include <gtest/gtest.h>

#include "eval/inflationary.h"
#include "gadgets/graphs.h"

namespace pfql {
namespace eval {
namespace {

using gadgets::Complete;
using gadgets::Cycle;
using gadgets::RandomWalkQuery;
using gadgets::WalkAtNode;

TEST(ExactForeverTest, StationaryOfCompleteGraphIsUniform) {
  auto wq = RandomWalkQuery(Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  ForeverQuery query{wq->kernel, WalkAtNode(2)};
  auto result = ExactForever(query, wq->initial);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->probability, BigRational(1, 4));
  EXPECT_EQ(result->num_states, 4u);
  EXPECT_TRUE(result->irreducible);
  EXPECT_TRUE(result->aperiodic);
}

TEST(ExactForeverTest, PeriodicCycleStillUniform) {
  // A directed 5-cycle is periodic; the Cesàro-limit semantics gives the
  // uniform distribution anyway.
  auto wq = RandomWalkQuery(Cycle(5), 0);
  ASSERT_TRUE(wq.ok());
  ForeverQuery query{wq->kernel, WalkAtNode(3)};
  auto result = ExactForever(query, wq->initial);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->probability, BigRational(1, 5));
  EXPECT_FALSE(result->aperiodic);
  EXPECT_TRUE(result->irreducible);
}

TEST(ExactForeverTest, BiasedTwoNodeWalk) {
  // 0 -> 1 w.p. 1/3 (stay 2/3); 1 -> 0 w.p. 1/2: pi = (3/5, 2/5).
  gadgets::Graph g;
  g.num_nodes = 2;
  g.edges = {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}};
  auto wq = RandomWalkQuery(g, 0);
  ASSERT_TRUE(wq.ok());
  ForeverQuery query{wq->kernel, WalkAtNode(1)};
  auto result = ExactForever(query, wq->initial);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->probability, BigRational(2, 5));
}

TEST(ExactForeverTest, ReducibleChainAbsorption) {
  // 0 -> {1 w.p. 1/4, 2 w.p. 3/4}, both absorbing. Event: at node 2.
  gadgets::Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1, 1.0}, {0, 2, 3.0}, {1, 1, 1.0}, {2, 2, 1.0}};
  auto wq = RandomWalkQuery(g, 0);
  ASSERT_TRUE(wq.ok());
  ForeverQuery query{wq->kernel, WalkAtNode(2)};
  auto result = ExactForever(query, wq->initial);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->probability, BigRational(3, 4));
  EXPECT_FALSE(result->irreducible);
  EXPECT_EQ(result->num_bottom, 2u);
}

TEST(McmcParamsTest, SampleCount) {
  McmcParams p;
  p.epsilon = 0.1;
  p.delta = 0.05;
  EXPECT_EQ(HoeffdingCount(p.epsilon, p.delta).value(), 185u);
}

TEST(McmcForeverTest, Thm56EstimateMatchesStationary) {
  // Fast-mixing complete graph: small burn-in suffices.
  auto wq = RandomWalkQuery(Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  ForeverQuery query{wq->kernel, WalkAtNode(2)};
  McmcParams params;
  params.burn_in = 4;
  params.epsilon = 0.05;
  params.delta = 0.01;
  Rng rng(9);
  auto result = McmcForever(query, wq->initial, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result->estimate, 0.25, params.epsilon);
  EXPECT_EQ(result->total_steps, params.burn_in * result->samples);
}

TEST(McmcForeverTest, RejectsEpsilonAndDeltaOutsideTheirRanges) {
  auto wq = RandomWalkQuery(Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  const std::pair<double, double> bad[] = {
      {0.0, 0.05}, {1e-300, 0.05}, {0.1, 0.0}, {0.1, 3.0}};
  for (Backend backend : {Backend::kInterpreted, Backend::kCompiled}) {
    for (const auto& [epsilon, delta] : bad) {
      McmcParams params;
      params.burn_in = 2;
      params.epsilon = epsilon;
      params.delta = delta;
      params.max_samples = 4;  // the range check holds with an override
      params.backend = backend;
      Rng rng(1);
      auto result = McmcForever({wq->kernel, WalkAtNode(2)}, wq->initial,
                                params, &rng);
      ASSERT_FALSE(result.ok()) << epsilon << " " << delta;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(McmcForeverTest, ShortBurnInIsBiased) {
  // With burn_in = 0 every sample reports the initial state: the estimate
  // of "at node 2" is 0 — demonstrating why Thm 5.6 needs the mixing time.
  auto wq = RandomWalkQuery(Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  ForeverQuery query{wq->kernel, WalkAtNode(2)};
  McmcParams params;
  params.burn_in = 0;
  Rng rng(9);
  auto result = McmcForever(query, wq->initial, params, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 0.0);
}

TEST(MeasureMixingTimeTest, CompleteGraphMixesInstantly) {
  auto wq = RandomWalkQuery(Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  auto t = MeasureMixingTime(wq->kernel, wq->initial, 0.01);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_LE(t.value(), 1u);
}

TEST(MeasureMixingTimeTest, LazyCycleSlowerThanComplete) {
  auto lazy = RandomWalkQuery(Cycle(8, /*lazy=*/true), 0);
  ASSERT_TRUE(lazy.ok());
  auto t_cycle = MeasureMixingTime(lazy->kernel, lazy->initial, 0.05);
  ASSERT_TRUE(t_cycle.ok()) << t_cycle.status();
  auto fast = RandomWalkQuery(Complete(8), 0);
  ASSERT_TRUE(fast.ok());
  auto t_complete = MeasureMixingTime(fast->kernel, fast->initial, 0.05);
  ASSERT_TRUE(t_complete.ok());
  EXPECT_GT(t_cycle.value(), t_complete.value());
}

TEST(MeasureMixingTimeTest, PeriodicChainFails) {
  auto wq = RandomWalkQuery(Cycle(4), 0);
  ASSERT_TRUE(wq.ok());
  EXPECT_FALSE(MeasureMixingTime(wq->kernel, wq->initial, 0.01).ok());
}

TEST(McmcVsExactTest, AgreementOnLazyCycle) {
  auto wq = RandomWalkQuery(Cycle(6, /*lazy=*/true), 0);
  ASSERT_TRUE(wq.ok());
  ForeverQuery query{wq->kernel, WalkAtNode(3)};
  auto exact = ExactForever(query, wq->initial);
  ASSERT_TRUE(exact.ok());
  auto burn = MeasureMixingTime(wq->kernel, wq->initial, 0.01);
  ASSERT_TRUE(burn.ok());
  McmcParams params;
  params.burn_in = burn.value();
  params.epsilon = 0.05;
  params.delta = 0.01;
  Rng rng(4);
  auto mcmc = McmcForever(query, wq->initial, params, &rng);
  ASSERT_TRUE(mcmc.ok());
  EXPECT_NEAR(mcmc->estimate, exact->probability.ToDouble(),
              params.epsilon + 0.01);
}

}  // namespace
}  // namespace eval
}  // namespace pfql
