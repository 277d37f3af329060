#include "datalog/engine.h"

#include <gtest/gtest.h>

#include "datalog/program.h"

namespace pfql {
namespace datalog {
namespace {

Instance TwoEdgeGraph() {
  // E = {(a,b), (a,c)} with unit weights — Example 3.6's graph.
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value("a"), Value("b"), Value(1)});
  e.Insert(Tuple{Value("a"), Value("c"), Value(1)});
  edb.Set("e", std::move(e));
  return edb;
}

// Example 3.9 program: one probabilistic successor choice per node.
Program ReachProgram() {
  auto program = ParseProgram(R"(
    cur(a).
    c2(<X>, Y) :- cur(X), e(X, Y, P).
    cur(Y) :- c2(X, Y).
  )");
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

TEST(EngineTest, Example36KeyedChoiceGivesHalf) {
  // With repair-key per source node (Example 3.9 / 3.6 "correct" rule),
  // Pr[b ∈ cur] = 0.5: the choice at 'a' happens exactly once.
  QueryEvent b_in_cur{"cur", Tuple{Value("b")}};
  auto p = ExactFixpointEventProbability(ReachProgram(), TwoEdgeGraph(),
                                         b_in_cur);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p.value(), BigRational(1, 2));
}

TEST(EngineTest, Example36UnrestrictedRuleGivesOne) {
  // Example 3.6's subtle variant: without the keyed choice (plain datalog
  // rule), every reachable tuple appears with probability 1.
  auto program = ParseProgram(R"(
    cur(a).
    cur(Y) :- cur(X), e(X, Y, P).
  )");
  ASSERT_TRUE(program.ok());
  QueryEvent b_in_cur{"cur", Tuple{Value("b")}};
  auto p = ExactFixpointEventProbability(*program, TwoEdgeGraph(), b_in_cur);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().IsOne());
}

TEST(EngineTest, WeightedChoiceProbabilities) {
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value("a"), Value("b"), Value(1)});
  e.Insert(Tuple{Value("a"), Value("c"), Value(3)});
  edb.Set("e", std::move(e));
  auto program = ParseProgram(R"(
    cur(a).
    c2(<X>, Y) @P :- cur(X), e(X, Y, P).
    cur(Y) :- c2(X, Y).
  )");
  ASSERT_TRUE(program.ok());
  auto p_b = ExactFixpointEventProbability(*program, edb,
                                           {"cur", Tuple{Value("b")}});
  ASSERT_TRUE(p_b.ok());
  EXPECT_EQ(p_b.value(), BigRational(1, 4));
  auto p_c = ExactFixpointEventProbability(*program, edb,
                                           {"cur", Tuple{Value("c")}});
  ASSERT_TRUE(p_c.ok());
  EXPECT_EQ(p_c.value(), BigRational(3, 4));
}

TEST(EngineTest, ChainReachabilityIsCertain) {
  // Path graph a -> b -> c: unique choices, so c is reached w.p. 1.
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value("a"), Value("b"), Value(1)});
  e.Insert(Tuple{Value("b"), Value("c"), Value(1)});
  edb.Set("e", std::move(e));
  auto p = ExactFixpointEventProbability(ReachProgram(), edb,
                                         {"cur", Tuple{Value("c")}});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().IsOne());
}

TEST(EngineTest, TwoHopChoiceMultiplies) {
  // a -> {b, c}; b -> {d, e}: Pr[d] = 1/4.
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  for (auto [from, to] : std::vector<std::pair<const char*, const char*>>{
           {"a", "b"}, {"a", "c"}, {"b", "d"}, {"b", "e"}}) {
    e.Insert(Tuple{Value(from), Value(to), Value(1)});
  }
  edb.Set("e", std::move(e));
  auto p = ExactFixpointEventProbability(ReachProgram(), edb,
                                         {"cur", Tuple{Value("d")}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(1, 4));
}

TEST(EngineTest, ExactSearchSettlesWhereTheEventFirstHolds) {
  // a -> {b, c}; b -> {d, e}. The whole tree has 10 nodes: the root, the
  // step that adds cur(a), c2(a, b) or c2(a, c) and the cur(Y) they add
  // (cur(c) is a fixpoint), then c2(b, d) or c2(b, e) and their fixpoints.
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  for (auto [from, to] : std::vector<std::pair<const char*, const char*>>{
           {"a", "b"}, {"a", "c"}, {"b", "d"}, {"b", "e"}}) {
    e.Insert(Tuple{Value(from), Value(to), Value(1)});
  }
  edb.Set("e", std::move(e));
  size_t tree_nodes = 0;
  ASSERT_TRUE(
      ExactFixpointDistribution(ReachProgram(), edb, {}, &tree_nodes).ok());
  EXPECT_EQ(tree_nodes, 10u);

  struct Case {
    QueryEvent event;
    BigRational probability;
    size_t nodes;
  };
  const Case cases[] = {
      // Settles at cur(b), so the choice at b is never searched.
      {{"cur", Tuple{Value("b")}}, BigRational(1, 2), 6},
      // Holds only at fixpoints: every node is searched.
      {{"cur", Tuple{Value("d")}}, BigRational(1, 4), 10},
      // Holds at no node: every node is searched.
      {{"cur", Tuple{Value("f")}}, BigRational(0), 10},
      // No rule writes `e`, so the root decides.
      {{"e", Tuple{Value("a"), Value("b"), Value(1)}}, BigRational(1), 1},
      {{"e", Tuple{Value("b"), Value("a"), Value(1)}}, BigRational(0), 1},
  };
  for (const Case& c : cases) {
    size_t nodes = 0;
    auto p = ExactFixpointEventProbability(ReachProgram(), edb, c.event, {},
                                           &nodes);
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(p->ToString(), c.probability.ToString()) << c.event.ToString();
    EXPECT_EQ(nodes, c.nodes) << c.event.ToString();
  }
}

TEST(EngineTest, FixpointDistributionSumsToOne) {
  auto dist = ExactFixpointDistribution(ReachProgram(), TwoEdgeGraph());
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(dist->ValidateProper().ok());
  EXPECT_EQ(dist->size(), 2u);  // cur = {a,b} or {a,c}
}

TEST(EngineTest, SampleFixpointMatchesExact) {
  Program program = ReachProgram();
  Instance edb = TwoEdgeGraph();
  Rng rng(31);
  int b_hits = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    auto engine = InflationaryEngine::Make(program, edb);
    ASSERT_TRUE(engine.ok());
    auto fixpoint = engine->RunToFixpoint(&rng);
    ASSERT_TRUE(fixpoint.ok());
    if (fixpoint->Find("cur")->Contains(Tuple{Value("b")})) ++b_hits;
  }
  EXPECT_NEAR(b_hits / static_cast<double>(n), 0.5, 0.03);
}

TEST(EngineTest, SampleStepReportsFixpoint) {
  auto engine = InflationaryEngine::Make(ReachProgram(), TwoEdgeGraph());
  ASSERT_TRUE(engine.ok());
  Rng rng(7);
  int steps = 0;
  for (;; ++steps) {
    auto fired = engine->SampleStep(&rng);
    ASSERT_TRUE(fired.ok());
    if (!fired.value()) break;
    ASSERT_LT(steps, 100);
  }
  // After the fixpoint, further steps are no-ops.
  auto again = engine->SampleStep(&rng);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
  EXPECT_EQ(engine->steps_taken(), static_cast<size_t>(steps));
}

TEST(EngineTest, FactsFireOnlyOnce) {
  auto program = ParseProgram("f(x).\nf(y).");
  ASSERT_TRUE(program.ok());
  auto engine = InflationaryEngine::Make(*program, Instance{});
  ASSERT_TRUE(engine.ok());
  Rng rng(1);
  auto fired = engine->SampleStep(&rng);
  ASSERT_TRUE(fired.ok());
  EXPECT_TRUE(fired.value());
  EXPECT_EQ(engine->database().Find("f")->size(), 2u);
  auto fired2 = engine->SampleStep(&rng);
  ASSERT_TRUE(fired2.ok());
  EXPECT_FALSE(fired2.value());  // the empty valuation is no longer new
}

TEST(EngineTest, BuiltinsRestrictValuations) {
  Instance edb;
  Relation r(Schema({"x"}));
  for (int i = 0; i < 5; ++i) r.Insert(Tuple{Value(i)});
  edb.Set("r", std::move(r));
  auto program = ParseProgram("big(X) :- r(X), X >= 3.");
  ASSERT_TRUE(program.ok());
  auto engine = InflationaryEngine::Make(*program, edb);
  ASSERT_TRUE(engine.ok());
  Rng rng(1);
  auto fixpoint = engine->RunToFixpoint(&rng);
  ASSERT_TRUE(fixpoint.ok());
  EXPECT_EQ(fixpoint->Find("big")->size(), 2u);  // 3, 4
}

TEST(EngineTest, TransitiveClosureDeterministic) {
  Instance edb;
  Relation e(Schema({"i", "j"}));
  e.Insert(Tuple{Value(1), Value(2)});
  e.Insert(Tuple{Value(2), Value(3)});
  e.Insert(Tuple{Value(3), Value(4)});
  edb.Set("e", std::move(e));
  auto program = ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  ASSERT_TRUE(program.ok());
  auto engine = InflationaryEngine::Make(*program, edb);
  ASSERT_TRUE(engine.ok());
  Rng rng(1);
  auto fixpoint = engine->RunToFixpoint(&rng);
  ASSERT_TRUE(fixpoint.ok());
  EXPECT_EQ(fixpoint->Find("t")->size(), 6u);  // all ordered pairs i<j
  // Deterministic program: the exact distribution is a point mass.
  auto dist = ExactFixpointDistribution(*program, edb);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->size(), 1u);
}

TEST(EngineTest, RestartReplaysThePathFromTheInitialInstance) {
  auto engine = InflationaryEngine::Make(ReachProgram(), TwoEdgeGraph());
  ASSERT_TRUE(engine.ok());
  const Instance initial = engine->database();
  Rng rng(7);
  auto first = engine->RunToFixpoint(&rng);
  ASSERT_TRUE(first.ok());
  const size_t steps = engine->steps_taken();

  engine->Restart();
  EXPECT_EQ(engine->steps_taken(), 0u);
  EXPECT_EQ(engine->database(), initial);
  Rng replay(7);
  auto second = engine->RunToFixpoint(&replay);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(engine->steps_taken(), steps);
}

TEST(EngineTest, RestartOnAnotherInputNeedsTheCompiledSchemas) {
  auto engine = InflationaryEngine::Make(ReachProgram(), TwoEdgeGraph());
  ASSERT_TRUE(engine.ok());
  Instance other;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value("a"), Value("d"), Value(1)});
  other.Set("e", std::move(e));
  ASSERT_TRUE(engine->Restart(other).ok());
  Rng rng(1);
  auto fixpoint = engine->RunToFixpoint(&rng);
  ASSERT_TRUE(fixpoint.ok());
  EXPECT_TRUE(fixpoint->Find("cur")->Contains(Tuple{Value("d")}));

  // The rules were compiled against columns (i, j, p): an input that names
  // them otherwise is refused, not evaluated with the wrong plan.
  Instance renamed;
  renamed.Set("e", Relation(Schema({"x", "y", "w"})));
  Status status = engine->Restart(renamed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(EngineTest, ExactNodeBudgetRespected) {
  ExactInflationaryOptions options;
  options.max_nodes = 1;
  auto p = ExactFixpointEventProbability(ReachProgram(), TwoEdgeGraph(),
                                         {"cur", Tuple{Value("b")}}, options);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineTest, SelfLoopGraphTerminates) {
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value("a"), Value("a"), Value(1)});
  edb.Set("e", std::move(e));
  auto p = ExactFixpointEventProbability(ReachProgram(), edb,
                                         {"cur", Tuple{Value("a")}});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().IsOne());
}

}  // namespace
}  // namespace datalog
}  // namespace pfql
