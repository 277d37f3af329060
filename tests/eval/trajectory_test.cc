#include "eval/trajectory.h"

#include <gtest/gtest.h>

#include "gadgets/graphs.h"

namespace pfql {
namespace eval {
namespace {

TEST(TrajectoryTest, ErgodicWalkMatchesStationary) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  TrajectoryParams params;
  params.steps = 4000;
  params.runs = 4;
  Rng rng(1);
  auto result = TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(2)},
                                    wq->initial, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result->estimate, 0.25, 0.03);
  EXPECT_EQ(result->per_run.size(), 4u);
}

TEST(TrajectoryTest, PeriodicChainTimeAverageStillConverges) {
  // The Cesàro average is well-defined for periodic chains — this is why
  // Def 3.2 uses the time-average limit rather than the pointwise limit.
  auto wq = gadgets::RandomWalkQuery(gadgets::Cycle(4), 0);
  ASSERT_TRUE(wq.ok());
  TrajectoryParams params;
  params.steps = 4000;
  params.runs = 2;
  params.discard_fraction = 0.0;
  Rng rng(2);
  auto result = TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(1)},
                                    wq->initial, params, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 0.25, 0.01);
}

TEST(TrajectoryTest, ReducibleChainAveragesOverAbsorption) {
  // Diamond absorption 1/4 vs 3/4: each run's time average converges to
  // 0 or 1 (absorbed side), and the run mean estimates 3/4.
  gadgets::Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1, 1.0}, {0, 2, 3.0}, {1, 1, 1.0}, {2, 2, 1.0}};
  auto wq = gadgets::RandomWalkQuery(g, 0);
  ASSERT_TRUE(wq.ok());
  TrajectoryParams params;
  params.steps = 400;
  params.runs = 400;
  Rng rng(3);
  auto result = TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(2)},
                                    wq->initial, params, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 0.75, 0.06);
  // Per-run averages should be near-bimodal: mostly ~1 or ~0.
  int extreme = 0;
  for (double avg : result->per_run) {
    if (avg > 0.9 || avg < 0.1) ++extreme;
  }
  EXPECT_GT(extreme, static_cast<int>(result->per_run.size() * 3 / 4));
}

TEST(TrajectoryTest, CountsEventStepsAfterTheDiscardOnBothTiers) {
  // The 2-cycle walk is deterministic: step t (0-indexed) lands on node
  // (t+1) % 2. With 10 steps and a discard of 3, steps 3..9 are counted
  // and three of those seven land on node 1.
  auto wq = gadgets::RandomWalkQuery(gadgets::Cycle(2), 0);
  ASSERT_TRUE(wq.ok());
  for (Backend backend : {Backend::kInterpreted, Backend::kCompiled}) {
    TrajectoryParams params;
    params.steps = 10;
    params.runs = 2;
    params.discard_fraction = 0.3;
    params.backend = backend;
    Rng rng(1);
    auto result = TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(1)},
                                      wq->initial, params, &rng);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->compiled, backend == Backend::kCompiled);
    EXPECT_EQ(result->per_run, (std::vector<double>{3.0 / 7, 3.0 / 7}));
    EXPECT_EQ(result->total_steps, 20u);
  }
}

TEST(TrajectoryTest, ParameterValidation) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(3), 0);
  ASSERT_TRUE(wq.ok());
  Rng rng(5);
  TrajectoryParams bad;
  bad.steps = 0;
  EXPECT_FALSE(TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(0)},
                                   wq->initial, bad, &rng)
                   .ok());
  bad = {};
  bad.discard_fraction = 1.5;
  EXPECT_FALSE(TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(0)},
                                   wq->initial, bad, &rng)
                   .ok());
  bad = {};
  bad.delta = 0.0;  // the CI confidence 1 - delta must lie in (0, 1)
  EXPECT_FALSE(TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(0)},
                                   wq->initial, bad, &rng)
                   .ok());
}

}  // namespace
}  // namespace eval
}  // namespace pfql
