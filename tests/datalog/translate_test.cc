#include "datalog/translate.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/engine.h"
#include "markov/state_space.h"

namespace pfql {
namespace datalog {
namespace {

Instance TwoEdgeGraph() {
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value("a"), Value("b"), Value(1)});
  e.Insert(Tuple{Value("a"), Value("c"), Value(1)});
  edb.Set("e", std::move(e));
  return edb;
}

Program ReachProgram() {
  auto program = ParseProgram(R"(
    cur(a).
    c2(<X>, Y) :- cur(X), e(X, Y, P).
    cur(Y) :- c2(X, Y).
  )");
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

TEST(TranslateInflationaryTest, Prop38EquivalenceWithEngine) {
  // The translated inflationary query must assign the same probability to
  // the query event as the native engine (Prop 3.8).
  Program program = ReachProgram();
  Instance edb = TwoEdgeGraph();
  QueryEvent event{"cur", Tuple{Value("b")}};

  auto engine_p = ExactFixpointEventProbability(program, edb, event);
  ASSERT_TRUE(engine_p.ok());

  auto tq = TranslateInflationary(program, edb);
  ASSERT_TRUE(tq.ok()) << tq.status();
  auto space = BuildStateSpace(tq->kernel, tq->initial);
  ASSERT_TRUE(space.ok()) << space.status();
  auto indicator = space->EventStates(event);
  auto walk_p = space->chain.ExactLongRunProbability(
      0, [&](size_t s) { return indicator[s]; });
  ASSERT_TRUE(walk_p.ok());
  EXPECT_EQ(walk_p.value(), engine_p.value());
  EXPECT_EQ(walk_p.value(), BigRational(1, 2));
}

TEST(TranslateInflationaryTest, NonlinearDistributionMatchesEngine) {
  // The closure rule and the repair-key rule each read two IDB atoms, so
  // after the first step the engine fires them on the union of two delta
  // variants. Its exact fixpoint distribution must match the translation's,
  // which keeps oldVals and re-evaluates every body in full.
  auto program = ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), t(Y, Z).
    c(<X>, Z) @P :- t(X, Y), t(Y, Z), w(Z, P).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_FALSE(program->IsLinear());
  Instance edb;
  Relation e(Schema({"i", "j"}));
  const int edges[][2] = {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}};
  for (const auto& edge : edges) {
    e.Insert(Tuple{Value(edge[0]), Value(edge[1])});
  }
  edb.Set("e", std::move(e));
  Relation w(Schema({"z", "p"}));
  const int weights[][2] = {{1, 1}, {2, 2}, {3, 1}, {4, 3}};
  for (const auto& weight : weights) {
    w.Insert(Tuple{Value(weight[0]), Value(weight[1])});
  }
  edb.Set("w", std::move(w));

  auto dist = ExactFixpointDistribution(*program, edb);
  ASSERT_TRUE(dist.ok()) << dist.status();
  EXPECT_GT(dist->size(), 2u);

  auto tq = TranslateInflationary(*program, edb);
  ASSERT_TRUE(tq.ok()) << tq.status();
  auto space = BuildStateSpace(tq->kernel, tq->initial);
  ASSERT_TRUE(space.ok()) << space.status();
  // A translated state without its __old<i> relations is an engine state.
  std::vector<Instance> program_parts;
  for (const Instance& state : space->states) {
    Instance part;
    for (const auto& [name, rel] : state.relations()) {
      if (name.rfind("__old", 0) != 0) part.Set(name, rel);
    }
    program_parts.push_back(std::move(part));
  }
  BigRational total;
  for (const auto& outcome : dist->outcomes()) {
    auto p = space->chain.ExactLongRunProbability(
        0, [&](size_t s) { return program_parts[s] == outcome.value; });
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(p.value(), outcome.probability) << outcome.value;
    total += outcome.probability;
  }
  EXPECT_TRUE(total.IsOne());
}

// Prop 3.8: every successor of the initial instance contains it.
TEST(TranslateInflationaryTest, KernelIsInflationary) {
  auto tq = TranslateInflationary(ReachProgram(), TwoEdgeGraph());
  ASSERT_TRUE(tq.ok());
  auto kernel = tq->kernel.Compile(tq->initial);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto successors = (*kernel)->Exact(tq->initial);
  ASSERT_TRUE(successors.ok()) << successors.status();
  for (const auto& w : successors->outcomes()) {
    for (const auto& [name, rel] : tq->initial.relations()) {
      const Relation* next = w.value.Find(name);
      ASSERT_NE(next, nullptr) << name;
      EXPECT_TRUE(std::includes(next->tuples().begin(), next->tuples().end(),
                                rel->tuples().begin(), rel->tuples().end()))
          << name;
    }
  }
}

TEST(TranslateInflationaryTest, AuxiliaryOldValsRelationsAdded) {
  auto tq = TranslateInflationary(ReachProgram(), TwoEdgeGraph());
  ASSERT_TRUE(tq.ok());
  EXPECT_TRUE(tq->initial.Has("__old0"));
  EXPECT_TRUE(tq->initial.Has("__old1"));
  EXPECT_TRUE(tq->initial.Has("__old2"));
  EXPECT_TRUE(tq->kernel.Defines("__old1"));
}

TEST(TranslateInflationaryTest, FixpointsAreAbsorbing) {
  auto tq = TranslateInflationary(ReachProgram(), TwoEdgeGraph());
  ASSERT_TRUE(tq.ok());
  auto space = BuildStateSpace(tq->kernel, tq->initial);
  ASSERT_TRUE(space.ok());
  // Every bottom SCC must be a single absorbing state (the fixpoint).
  auto scc = space->chain.DecomposeScc();
  for (size_t c = 0; c < scc.components.size(); ++c) {
    if (scc.is_bottom[c]) {
      EXPECT_EQ(scc.components[c].size(), 1u);
    }
  }
}

TEST(TranslateNonInflationaryTest, RepeatedChoiceIsRandomWalk) {
  // flip(<K>, V) :- opts(K, V).  — re-chosen every step: a 2-state walk.
  auto program = ParseProgram("flip(<K>, V) :- opts(K, V).");
  ASSERT_TRUE(program.ok());
  Instance edb;
  Relation opts(Schema({"k", "v"}));
  opts.Insert(Tuple{Value("coin"), Value("heads")});
  opts.Insert(Tuple{Value("coin"), Value("tails")});
  edb.Set("opts", std::move(opts));

  auto tq = TranslateNonInflationary(*program, edb);
  ASSERT_TRUE(tq.ok()) << tq.status();
  auto space = BuildStateSpace(tq->kernel, tq->initial);
  ASSERT_TRUE(space.ok());
  // States: initial (flip empty), flip=heads, flip=tails.
  EXPECT_EQ(space->states.size(), 3u);
  QueryEvent heads{"flip", Tuple{Value("coin"), Value("heads")}};
  auto indicator = space->EventStates(heads);
  auto p = space->chain.ExactLongRunProbability(
      0, [&](size_t s) { return indicator[s]; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(1, 2));
}

TEST(TranslateNonInflationaryTest, PersistenceRule) {
  // done persists itself; trigger fires once from a fact. Noninflationary
  // still keeps done forever via done(X) :- done(X).
  auto program = ParseProgram(R"(
    start(go).
    done(X) :- start(X).
    done(X) :- done(X).
  )");
  ASSERT_TRUE(program.ok());
  auto tq = TranslateNonInflationary(*program, Instance{});
  ASSERT_TRUE(tq.ok());
  auto space = BuildStateSpace(tq->kernel, tq->initial);
  ASSERT_TRUE(space.ok());
  QueryEvent event{"done", Tuple{Value("go")}};
  auto indicator = space->EventStates(event);
  auto p = space->chain.ExactLongRunProbability(
      0, [&](size_t s) { return indicator[s]; });
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().IsOne());
}

TEST(TranslateNonInflationaryTest, WithPCResamplesEachStep) {
  // r(V) over pc-table a(V) with Pr[hit] = 1/2, rebuilt every step; the
  // long-run probability of hit ∈ r is exactly 1/2.
  auto program = ParseProgram("r(V) :- a(V).");
  ASSERT_TRUE(program.ok());
  PCDatabase pc;
  ASSERT_TRUE(pc.AddBooleanVariable("x", BigRational(1, 2)).ok());
  CTable t;
  t.schema = Schema({"v"});
  t.rows.push_back({Tuple{Value("hit")},
                    Condition::Eq("x", Value(int64_t{1}))});
  ASSERT_TRUE(pc.AddTable("a", std::move(t)).ok());

  auto tq = TranslateNonInflationaryWithPC(*program, pc, Instance{});
  ASSERT_TRUE(tq.ok()) << tq.status();
  auto space = BuildStateSpace(tq->kernel, tq->initial);
  ASSERT_TRUE(space.ok()) << space.status();
  QueryEvent event{"r", Tuple{Value("hit")}};
  auto indicator = space->EventStates(event);
  auto p = space->chain.ExactLongRunProbability(
      0, [&](size_t s) { return indicator[s]; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(1, 2));
}

TEST(TranslateNonInflationaryTest, PCTableNameConflictRejected) {
  auto program = ParseProgram("a(x).\nr(V) :- a(V).");
  ASSERT_TRUE(program.ok());
  PCDatabase pc;
  ASSERT_TRUE(pc.AddBooleanVariable("x", BigRational(1, 2)).ok());
  CTable t;
  t.schema = Schema({"v"});
  t.rows.push_back({Tuple{Value("hit")}, Condition::True()});
  ASSERT_TRUE(pc.AddTable("a", std::move(t)).ok());
  // 'a' is IDB (a fact head) and also a pc-table: must be rejected.
  EXPECT_FALSE(TranslateNonInflationaryWithPC(*program, pc, Instance{}).ok());
}

TEST(TranslateNonInflationaryTest, MultipleRulesSameHeadUnion) {
  auto program = ParseProgram(R"(
    out(X) :- left(X).
    out(X) :- right(X).
  )");
  ASSERT_TRUE(program.ok());
  Instance edb;
  Relation l(Schema({"x"})), r(Schema({"x"}));
  l.Insert(Tuple{Value(1)});
  r.Insert(Tuple{Value(2)});
  edb.Set("left", std::move(l));
  edb.Set("right", std::move(r));
  auto tq = TranslateNonInflationary(*program, edb);
  ASSERT_TRUE(tq.ok());
  auto kernel = tq->kernel.Compile(tq->initial);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto dist = (*kernel)->Exact(tq->initial);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 1u);
  const Relation* out = dist->outcomes()[0].value.Find("out");
  EXPECT_EQ(out->size(), 2u);
}

}  // namespace
}  // namespace datalog
}  // namespace pfql
