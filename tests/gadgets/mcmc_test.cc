#include "gadgets/mcmc.h"

#include <gtest/gtest.h>

#include "eval/noninflationary.h"

namespace pfql {
namespace gadgets {
namespace {

Graph Triangle() {
  Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}};
  return g;
}

Graph Path3() {  // 0 - 1 - 2
  Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1, 1.0}, {1, 2, 1.0}};
  return g;
}

TEST(IndependentSetCountTest, KnownGraphs) {
  // Triangle: {}, {0}, {1}, {2} -> 4.
  auto tri = CountIndependentSets(Triangle());
  ASSERT_TRUE(tri.ok());
  EXPECT_EQ(tri.value(), 4u);
  // Path 0-1-2: {}, {0}, {1}, {2}, {0,2} -> 5.
  auto path = CountIndependentSets(Path3());
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), 5u);
  // 5-cycle: Lucas number L_5 = 11.
  auto c5 = CountIndependentSets(Cycle(5));
  ASSERT_TRUE(c5.ok());
  EXPECT_EQ(c5.value(), 11u);
  // Edgeless graph on 4 vertices: 2^4.
  Graph empty;
  empty.num_nodes = 4;
  auto e4 = CountIndependentSets(empty);
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(e4.value(), 16u);
}

TEST(IndependentSetCountTest, ContainingVertex) {
  auto with0 = CountIndependentSetsContaining(Path3(), 0);
  ASSERT_TRUE(with0.ok());
  EXPECT_EQ(with0.value(), 2u);  // {0}, {0,2}
  auto with1 = CountIndependentSetsContaining(Path3(), 1);
  ASSERT_TRUE(with1.ok());
  EXPECT_EQ(with1.value(), 1u);  // {1}
  EXPECT_FALSE(CountIndependentSetsContaining(Path3(), 9).ok());
}

TEST(IndependentSetCountTest, RejectsSelfLoopsAndHugeGraphs) {
  Graph loop;
  loop.num_nodes = 2;
  loop.edges = {{0, 0, 1.0}};
  EXPECT_FALSE(CountIndependentSets(loop).ok());
  EXPECT_FALSE(IndependentSetGlauber(loop).ok());
  Graph huge;
  huge.num_nodes = 31;
  EXPECT_FALSE(CountIndependentSets(huge).ok());
}

TEST(GlauberTest, StationaryIsUniformOverIndependentSets) {
  // Exact long-run Pr[v in set] must equal #IS(v)/#IS for every vertex.
  for (const Graph& g : {Triangle(), Path3()}) {
    auto gq = IndependentSetGlauber(g);
    ASSERT_TRUE(gq.ok()) << gq.status();
    auto total = CountIndependentSets(g);
    ASSERT_TRUE(total.ok());
    for (int64_t v = 0; v < g.num_nodes; ++v) {
      auto result = eval::ExactForever({gq->kernel, VertexInSet(v)},
                                       gq->initial);
      ASSERT_TRUE(result.ok()) << result.status();
      auto with_v = CountIndependentSetsContaining(g, v);
      ASSERT_TRUE(with_v.ok());
      EXPECT_EQ(result->probability,
                BigRational(static_cast<int64_t>(with_v.value()),
                            static_cast<int64_t>(total.value())))
          << "vertex " << v;
    }
  }
}

TEST(GlauberTest, ChainIsErgodic) {
  auto gq = IndependentSetGlauber(Path3());
  ASSERT_TRUE(gq.ok());
  auto result = eval::ExactForever({gq->kernel, VertexInSet(0)}, gq->initial);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->irreducible);
  EXPECT_TRUE(result->aperiodic);
  // States = independent sets x picked vertex = 5 * 3.
  EXPECT_EQ(result->num_states, 15u);
}

TEST(GlauberTest, WalkStaysIndependent) {
  // Property: along any sampled trajectory, `in` is always an independent
  // set.
  Graph g = Cycle(5);
  auto gq = IndependentSetGlauber(g);
  ASSERT_TRUE(gq.ok());
  auto kernel = gq->kernel.Compile(gq->initial);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  Rng rng(8);
  Instance state = gq->initial;
  for (int step = 0; step < 300; ++step) {
    ASSERT_TRUE((*kernel)->Step(&state, &rng).ok());
    const Relation* in = state.Find("in");
    const Relation* edge = state.Find("edge");
    for (const auto& e : edge->tuples()) {
      EXPECT_FALSE(in->Contains(Tuple{e[0]}) && in->Contains(Tuple{e[1]}))
          << "dependent pair " << e.ToString() << " at step " << step;
    }
  }
}

TEST(GlauberTest, McmcMatchesExact) {
  Graph g = Path3();
  auto gq = IndependentSetGlauber(g);
  ASSERT_TRUE(gq.ok());
  auto burn = eval::MeasureMixingTime(gq->kernel, gq->initial, 0.01);
  ASSERT_TRUE(burn.ok()) << burn.status();
  eval::McmcParams params;
  params.burn_in = *burn;
  params.epsilon = 0.05;
  params.delta = 0.02;
  Rng rng(12);
  auto mcmc = eval::McmcForever({gq->kernel, VertexInSet(0)}, gq->initial,
                                params, &rng);
  ASSERT_TRUE(mcmc.ok());
  EXPECT_NEAR(mcmc->estimate, 2.0 / 5.0, params.epsilon + 0.01);
}

}  // namespace
}  // namespace gadgets
}  // namespace pfql
