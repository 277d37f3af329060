// The inflationary engine's semi-naive step: after the first step, each
// rule fires only on the valuations that use a tuple the last step added.
// On deterministic programs that is classical semi-naive evaluation, so
// the engine must reach the classical fixpoint, and its reserved
// "__delta_" relations must never reach a caller.
#include <gtest/gtest.h>

#include "datalog/engine.h"
#include "datalog/translate.h"
#include "gadgets/graphs.h"

namespace pfql {
namespace datalog {
namespace {

Instance LineEdb(int64_t n) {
  Instance edb;
  Relation e(Schema({"i", "j"}));
  for (int64_t i = 0; i + 1 < n; ++i) {
    e.Insert(Tuple{Value(i), Value(i + 1)});
  }
  edb.Set("e", std::move(e));
  return edb;
}

Program TransitiveClosure() {
  auto program = ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

StatusOr<Instance> Fixpoint(const Program& program, const Instance& edb,
                            size_t* steps = nullptr) {
  PFQL_ASSIGN_OR_RETURN(InflationaryEngine engine,
                        InflationaryEngine::Make(program, edb));
  Rng rng(1);
  PFQL_ASSIGN_OR_RETURN(Instance fixpoint, engine.RunToFixpoint(&rng));
  if (steps != nullptr) *steps = engine.steps_taken();
  return fixpoint;
}

void ExpectNoDeltaRelations(const Instance& instance) {
  for (const auto& [name, _] : instance.relations()) {
    EXPECT_EQ(name.rfind("__delta_", 0), std::string::npos) << name;
  }
}

TEST(SeminaiveTest, TransitiveClosureOfLine) {
  size_t steps = 0;
  auto fixpoint = Fixpoint(TransitiveClosure(), LineEdb(6), &steps);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  // 5+4+3+2+1 = 15 ordered reachable pairs, one path length per step.
  EXPECT_EQ(fixpoint->Find("t")->size(), 15u);
  EXPECT_EQ(steps, 5u);
}

TEST(SeminaiveTest, MatchesInflationaryEngineOnRandomGraphs) {
  // The engine against the Prop 3.8 translation, which keeps Sec 3.3's
  // oldVals as relations and re-evaluates every body in full each step.
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    gadgets::Graph g = gadgets::RandomDigraph(8, 0.25, &rng);
    Instance edb;
    Relation e(Schema({"i", "j"}));
    for (const auto& edge : g.edges) {
      e.Insert(Tuple{Value(edge.from), Value(edge.to)});
    }
    edb.Set("e", std::move(e));

    size_t steps = 0;
    auto fast = Fixpoint(TransitiveClosure(), edb, &steps);
    ASSERT_TRUE(fast.ok()) << fast.status();
    auto tq = TranslateInflationary(TransitiveClosure(), edb);
    ASSERT_TRUE(tq.ok()) << tq.status();
    auto kernel = tq->kernel.Compile(tq->initial);
    ASSERT_TRUE(kernel.ok()) << kernel.status();
    Rng run_rng(1);
    Instance state = tq->initial;
    size_t kernel_steps = 0;
    for (;; ++kernel_steps) {
      Instance next = state;
      Status stepped = (*kernel)->Step(&next, &run_rng);
      ASSERT_TRUE(stepped.ok()) << stepped;
      if (next == state) break;
      state = std::move(next);
    }
    EXPECT_EQ(*fast->Find("t"), *state.Find("t")) << "trial " << trial;
    EXPECT_EQ(steps, kernel_steps) << "trial " << trial;
  }
}

TEST(SeminaiveTest, FactsAndNonRecursiveRules) {
  auto program = ParseProgram(R"(
    start(a).
    start(b).
    copy(X) :- start(X).
  )");
  ASSERT_TRUE(program.ok());
  auto fixpoint = Fixpoint(*program, Instance{});
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  EXPECT_EQ(fixpoint->Find("start")->size(), 2u);
  EXPECT_EQ(fixpoint->Find("copy")->size(), 2u);
}

TEST(SeminaiveTest, MutualRecursion) {
  auto program = ParseProgram(R"(
    even(0).
    odd(Y) :- even(X), succ(X, Y).
    even(Y) :- odd(X), succ(X, Y).
  )");
  ASSERT_TRUE(program.ok());
  Instance edb;
  Relation succ(Schema({"i", "j"}));
  for (int64_t i = 0; i < 6; ++i) succ.Insert(Tuple{Value(i), Value(i + 1)});
  edb.Set("succ", std::move(succ));
  auto fixpoint = Fixpoint(*program, edb);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  EXPECT_TRUE(fixpoint->Find("even")->Contains(Tuple{Value(4)}));
  EXPECT_FALSE(fixpoint->Find("even")->Contains(Tuple{Value(5)}));
  EXPECT_TRUE(fixpoint->Find("odd")->Contains(Tuple{Value(5)}));
}

TEST(SeminaiveTest, BuiltinsRespected) {
  auto program = ParseProgram("t(X, Y) :- e(X, Y), X < 2.");
  ASSERT_TRUE(program.ok());
  auto fixpoint = Fixpoint(*program, LineEdb(5));
  ASSERT_TRUE(fixpoint.ok());
  EXPECT_EQ(fixpoint->Find("t")->size(), 2u);  // (0,1), (1,2)
}

TEST(SeminaiveTest, NoDeltaRelationsLeakIntoResult) {
  auto engine = InflationaryEngine::Make(TransitiveClosure(), LineEdb(4));
  ASSERT_TRUE(engine.ok());
  Rng rng(1);
  ASSERT_TRUE(engine->SampleStep(&rng).ok());
  ASSERT_TRUE(engine->SampleStep(&rng).ok());
  ExpectNoDeltaRelations(engine->database());
  auto fixpoint = engine->RunToFixpoint(&rng);
  ASSERT_TRUE(fixpoint.ok());
  ExpectNoDeltaRelations(*fixpoint);
  ExpectNoDeltaRelations(engine->database());

  auto dist = ExactFixpointDistribution(TransitiveClosure(), LineEdb(4));
  ASSERT_TRUE(dist.ok()) << dist.status();
  ASSERT_EQ(dist->outcomes().size(), 1u);
  ExpectNoDeltaRelations(dist->outcomes()[0].value);
  EXPECT_EQ(dist->outcomes()[0].value, *fixpoint);
}

TEST(SeminaiveTest, ReservedDeltaPrefixIsRejected) {
  // The parser cannot spell "__delta_t", but a programmatic rule can.
  Rule rule;
  rule.head.predicate = "__delta_t";
  rule.head.terms = {Term::Var("X")};
  rule.head.is_key = {true};
  rule.body.push_back(Atom{"e", {Term::Var("X"), Term::Var("Y")}, {}});
  auto program = Program::Make({rule});
  ASSERT_TRUE(program.ok()) << program.status();

  auto engine = InflationaryEngine::Make(*program, LineEdb(3));
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(engine.status().message().find("__delta_"), std::string::npos)
      << engine.status();
  auto exact = ExactFixpointEventProbability(
      *program, LineEdb(3), {"__delta_t", Tuple{Value(int64_t{0})}});
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace datalog
}  // namespace pfql
