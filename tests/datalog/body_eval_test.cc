#include "datalog/body_eval.h"

#include <gtest/gtest.h>

#include "datalog/program.h"
#include "ra/plan.h"

namespace pfql {
namespace datalog {
namespace {

std::map<std::string, Schema> GraphSchemas() {
  return {{"e", Schema({"src", "dst", "w"})}, {"c", Schema({"node"})}};
}

Instance GraphDb() {
  Instance db;
  Relation e(Schema({"src", "dst", "w"}));
  e.Insert(Tuple{Value(1), Value(2), Value(10)});
  e.Insert(Tuple{Value(2), Value(3), Value(20)});
  e.Insert(Tuple{Value(1), Value(1), Value(5)});
  db.Set("e", std::move(e));
  Relation c(Schema({"node"}));
  c.Insert(Tuple{Value(1)});
  db.Set("c", std::move(c));
  return db;
}

Relation EvalRule(const char* text,
                  const std::map<std::string, Schema>& schemas,
                  const Instance& db) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  auto body = CompileBody(program->rules()[0], schemas);
  EXPECT_TRUE(body.ok()) << body.status();
  auto plan = RaPlan::Compile(*body, schemas);
  EXPECT_TRUE(plan.ok()) << plan.status();
  auto result = plan->Sample(db, nullptr);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(BodyEvalTest, SingleAtomProducesVariableColumns) {
  Relation vals = EvalRule("h(X, Y) :- e(X, Y, W).", GraphSchemas(),
                           GraphDb());
  EXPECT_EQ(vals.schema(), Schema({"X", "Y", "W"}));
  EXPECT_EQ(vals.size(), 3u);
}

TEST(BodyEvalTest, ConstantsInAtomsSelect) {
  Relation vals = EvalRule("h(Y) :- e(1, Y, W).", GraphSchemas(), GraphDb());
  EXPECT_EQ(vals.schema(), Schema({"Y", "W"}));
  EXPECT_EQ(vals.size(), 2u);  // dst 2 and 1
}

TEST(BodyEvalTest, RepeatedVariableInOneAtom) {
  // Self-loops only: e(X, X, W).
  Relation vals = EvalRule("h(X) :- e(X, X, W).", GraphSchemas(), GraphDb());
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals.tuples()[0][0], Value(1));
}

TEST(BodyEvalTest, JoinAcrossAtoms) {
  // Two-hop paths.
  Relation vals = EvalRule("h(X, Z) :- e(X, Y, W1), e(Y, Z, W2).",
                           GraphSchemas(), GraphDb());
  // (1,2)+(2,3); (1,1)+(1,2); (1,1)+(1,1)  => bindings over X,Y,W1,Z,W2.
  EXPECT_EQ(vals.schema().size(), 5u);
  EXPECT_EQ(vals.size(), 3u);
}

TEST(BodyEvalTest, BuiltinsFilter) {
  Relation vals = EvalRule("h(X, Y) :- e(X, Y, W), W >= 10, X != Y.",
                           GraphSchemas(), GraphDb());
  EXPECT_EQ(vals.size(), 2u);  // drops the (1,1,5) self-loop twice over
}

TEST(BodyEvalTest, EmptyBodyIsSingleEmptyValuation) {
  auto program = ParseProgram("f(x).");
  ASSERT_TRUE(program.ok());
  auto body = CompileBody(program->rules()[0], {});
  ASSERT_TRUE(body.ok());
  auto plan = RaPlan::Compile(*body, {});
  ASSERT_TRUE(plan.ok());
  auto result = plan->Sample(Instance{}, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().size(), 0u);
  EXPECT_EQ(result->size(), 1u);
}

TEST(BodyEvalTest, UnknownPredicateFails) {
  auto program = ParseProgram("h(X) :- ghost(X).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(CompileBody(program->rules()[0], GraphSchemas()).ok());
}

TEST(BodyEvalTest, ArityMismatchFails) {
  auto program = ParseProgram("h(X) :- e(X).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(CompileBody(program->rules()[0], GraphSchemas()).ok());
}

TEST(BuildHeadTupleTest, MixesVariablesAndConstants) {
  Head head;
  head.predicate = "h";
  head.terms = {Term::Const(Value("tag")), Term::Var("X"), Term::Var("X")};
  head.is_key = {true, true, true};
  Schema binding_schema({"X", "Y"});
  Tuple binding{Value(7), Value(8)};
  auto layout = HeadLayout::Resolve(head.terms, binding_schema);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->Build(binding), (Tuple{Value("tag"), Value(7), Value(7)}));
}

TEST(BuildHeadTupleTest, MissingVariableFails) {
  Head head;
  head.predicate = "h";
  head.terms = {Term::Var("Z")};
  head.is_key = {true};
  auto layout = HeadLayout::Resolve(head.terms, Schema({"X"}));
  EXPECT_EQ(layout.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace datalog
}  // namespace pfql
