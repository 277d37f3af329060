// Answers of the inflationary evaluator pinned to literal values: exact
// probabilities with the computation-tree nodes their search visits (Prop
// 4.4), seeded approx estimates (Thm 4.3) at one and three threads, and one
// sampled fixpoint. A change to the order of the repair-key draws, to the
// number of nodes searched or in the whole tree, or to which relations a
// fixpoint holds moves one of them.
#include <gtest/gtest.h>

#include "datalog/engine.h"
#include "eval/inflationary.h"
#include "relational/text_io.h"

namespace pfql {
namespace eval {
namespace {

// Example 3.9's reachability: one weighted out-edge fires per reached node.
constexpr char kReach[] =
    "cur(0).\n"
    "c2(<X>, Y) @P :- cur(X), e(X, Y, P).\n"
    "cur(Y) :- c2(X, Y).\n";

datalog::Program Reach() {
  auto program = datalog::ParseProgram(kReach);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// The 9-node circulant digraph with out-edges i -> i+1, i+3, i+4 (mod 9);
// `pattern` picks the weights 1..4.
Instance Circulant9(int64_t pattern) {
  const int64_t offsets[] = {1, 3, 4};
  std::vector<Tuple> edges;
  for (int64_t i = 0; i < 9; ++i) {
    for (int64_t k = 0; k < 3; ++k) {
      const int64_t weight = 1 + (5 * i + 3 * k + 7 * pattern) % 4;
      edges.push_back(
          Tuple{Value(i), Value((i + offsets[k]) % 9), Value(weight)});
    }
  }
  Instance edb;
  edb.Set("e", Relation::Make(Schema({"i", "j", "p"}), std::move(edges))
                   .value());
  return edb;
}

// The search settles where `cur` first holds the node, so it visits a
// part of the 2,654-node tree; node 9 is on no path, so its event holds at
// no node and the search walks the whole tree.
TEST(InflationaryPinnedTest, ExactReachProbabilityAndNodes) {
  struct Case {
    int64_t pattern;
    int64_t node;
    const char* probability;
    size_t nodes;
  };
  const Case cases[] = {
      {0, 5, "39725/93312", 926},
      {1, 7, "40856/107163", 692},
      {0, 9, "0", 2654},
      {1, 9, "0", 2654},
  };
  for (const Case& c : cases) {
    size_t nodes = 0;
    auto p = ExactInflationary(Reach(), Circulant9(c.pattern),
                               {"cur", Tuple{Value(c.node)}}, {}, &nodes);
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(p->ToString(), c.probability)
        << "pattern " << c.pattern << ", node " << c.node;
    EXPECT_EQ(nodes, c.nodes) << "pattern " << c.pattern << ", node "
                              << c.node;
  }
}

// max_nodes budgets the nodes the search visits: 1,000 covers the settled
// search for cur(5) but not the whole tree that cur(9) needs.
TEST(InflationaryPinnedTest, ExactNodeBudgetCountsVisitedNodes) {
  datalog::ExactInflationaryOptions options;
  options.max_nodes = 1000;
  auto settled = ExactInflationary(Reach(), Circulant9(0),
                                   {"cur", Tuple{Value(int64_t{5})}}, options);
  ASSERT_TRUE(settled.ok()) << settled.status();
  EXPECT_EQ(settled->ToString(), "39725/93312");
  auto whole = ExactInflationary(Reach(), Circulant9(0),
                                 {"cur", Tuple{Value(int64_t{9})}}, options);
  EXPECT_EQ(whole.status().code(), StatusCode::kResourceExhausted)
      << whole.status();
}

// Over e(0,1,1), e(1,2,0), node 1's only out-edge has weight 0, so its
// repair-key group has total weight zero. `cur(1)` holds before the step
// that would fire that group, so the search settles there and does not
// report the error; `cur(2)` needs that step and reports it. `approx` runs
// every sample to its fixpoint, so it reports the error for either event.
TEST(InflationaryPinnedTest, ZeroWeightGroupBelowASettledNode) {
  Instance edb;
  edb.Set("e", Relation::Make(Schema({"i", "j", "p"}),
                              {Tuple{Value(0), Value(1), Value(1)},
                               Tuple{Value(1), Value(2), Value(0)}})
                   .value());
  size_t nodes = 0;
  auto settled = ExactInflationary(
      Reach(), edb, {"cur", Tuple{Value(int64_t{1})}}, {}, &nodes);
  ASSERT_TRUE(settled.ok()) << settled.status();
  EXPECT_EQ(settled->ToString(), "1");
  EXPECT_EQ(nodes, 4u);
  auto unsettled =
      ExactInflationary(Reach(), edb, {"cur", Tuple{Value(int64_t{2})}});
  EXPECT_EQ(unsettled.status().code(), StatusCode::kInvalidArgument)
      << unsettled.status();

  ApproxParams params;
  params.max_samples = 4;
  Rng rng(1);
  auto sampled = ApproxInflationary(
      Reach(), edb, {"cur", Tuple{Value(int64_t{1})}}, params, &rng);
  EXPECT_EQ(sampled.status().code(), StatusCode::kInvalidArgument)
      << sampled.status();
}

TEST(InflationaryPinnedTest, SeededApproxAtOneAndThreeThreads) {
  struct Case {
    size_t threads;
    size_t hits;
    size_t total_steps;
  };
  const Case cases[] = {{1, 249, 8112}, {3, 252, 8064}};
  for (const Case& c : cases) {
    ApproxParams params;
    params.epsilon = 0.05;
    params.delta = 0.05;
    params.threads = c.threads;
    Rng rng(17);
    auto r = ApproxInflationary(Reach(), Circulant9(1),
                                {"cur", Tuple{Value(int64_t{7})}}, params,
                                &rng);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->samples, 738u) << c.threads << " threads";
    EXPECT_EQ(r->estimate, static_cast<double>(c.hits) / 738.0)
        << c.threads << " threads";
    EXPECT_EQ(r->total_steps, c.total_steps) << c.threads << " threads";
  }
}

TEST(InflationaryPinnedTest, SampledFixpointStepsAndText) {
  auto engine = datalog::InflationaryEngine::Make(Reach(), Circulant9(0));
  ASSERT_TRUE(engine.ok()) << engine.status();
  Rng rng(3);
  auto fixpoint = engine->RunToFixpoint(&rng);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  EXPECT_EQ(engine->steps_taken(), 11u);
  EXPECT_EQ(FormatInstance(*fixpoint), R"(relation c2(a0, a1) {
  (0, 4)
  (2, 5)
  (4, 8)
  (5, 0)
  (8, 2)
}
relation cur(a0) {
  (0)
  (2)
  (4)
  (5)
  (8)
}
relation e(i, j, p) {
  (0, 1, 1)
  (0, 3, 4)
  (0, 4, 3)
  (1, 2, 2)
  (1, 4, 1)
  (1, 5, 4)
  (2, 3, 3)
  (2, 5, 2)
  (2, 6, 1)
  (3, 4, 4)
  (3, 6, 3)
  (3, 7, 2)
  (4, 5, 1)
  (4, 7, 4)
  (4, 8, 3)
  (5, 0, 4)
  (5, 6, 2)
  (5, 8, 1)
  (6, 0, 2)
  (6, 1, 1)
  (6, 7, 3)
  (7, 1, 3)
  (7, 2, 2)
  (7, 8, 4)
  (8, 0, 1)
  (8, 2, 4)
  (8, 3, 3)
}
)");
}

}  // namespace
}  // namespace eval
}  // namespace pfql
