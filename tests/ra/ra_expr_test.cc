#include "ra/ra_expr.h"

#include <gtest/gtest.h>

#include "ra/plan.h"

namespace pfql {
namespace {

Instance GraphInstance() {
  Instance db;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value(1), Value(2), Value(1)});
  e.Insert(Tuple{Value(1), Value(3), Value(3)});
  e.Insert(Tuple{Value(2), Value(3), Value(1)});
  db.Set("e", std::move(e));
  Relation c(Schema({"i"}));
  c.Insert(Tuple{Value(1)});
  db.Set("c", std::move(c));
  return db;
}

// The cases below run `expr` through its plan, compiled against `db`.
StatusOr<Distribution<Relation>> PlanExact(
    const RaExpr::Ptr& expr, const Instance& db,
    const ExactEvalOptions& options = {}) {
  PFQL_ASSIGN_OR_RETURN(RaPlan plan, RaPlan::Compile(expr, db.Schemas()));
  return plan.Exact(db, options);
}

StatusOr<Relation> PlanSample(const RaExpr::Ptr& expr, const Instance& db,
                              Rng* rng) {
  PFQL_ASSIGN_OR_RETURN(RaPlan plan, RaPlan::Compile(expr, db.Schemas()));
  return plan.Sample(db, rng);
}

TEST(RaExprTest, BaseReadsRelation) {
  auto dist = PlanExact(RaExpr::Base("e"), GraphInstance());
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 1u);
  EXPECT_EQ(dist->outcomes()[0].value.size(), 3u);
  EXPECT_FALSE(PlanExact(RaExpr::Base("zzz"), GraphInstance()).ok());
}

TEST(RaExprTest, DeterministicPipelineHasSingleWorld) {
  // project_j(select_{i=1}(e))
  auto expr = RaExpr::Project(
      RaExpr::Select(RaExpr::Base("e"),
                     Predicate::ColumnEquals("i", Value(1))),
      {"j"});
  auto dist = PlanExact(expr, GraphInstance());
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 1u);
  const Relation& r = dist->outcomes()[0].value;
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Tuple{Value(2)}));
  EXPECT_TRUE(r.Contains(Tuple{Value(3)}));
}

TEST(RaExprTest, JoinThenRepairKeyWalkStep) {
  // The Example 3.3 step: repair-key_i@p(c ⋈ e), then project/rename.
  RepairKeySpec spec;
  spec.key_columns = {"i"};
  spec.weight_column = "p";
  auto expr = RaExpr::Rename(
      RaExpr::Project(
          RaExpr::RepairKey(RaExpr::Join(RaExpr::Base("c"), RaExpr::Base("e")),
                            spec),
          {"j"}),
      {{"j", "i"}});
  auto dist = PlanExact(expr, GraphInstance());
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 2u);
  EXPECT_TRUE(dist->ValidateProper().ok());
  // From node 1: j=2 with weight 1, j=3 with weight 3.
  for (const auto& o : dist->outcomes()) {
    ASSERT_EQ(o.value.size(), 1u);
    if (o.value.Contains(Tuple{Value(2)})) {
      EXPECT_EQ(o.probability, BigRational(1, 4));
    } else {
      EXPECT_TRUE(o.value.Contains(Tuple{Value(3)}));
      EXPECT_EQ(o.probability, BigRational(3, 4));
    }
  }
}

TEST(RaExprTest, IndependentSubtreesMultiply) {
  // Two independent repair-keys over the same base relation: 2x2 worlds...
  // but colliding results merge; check total mass and world count bounds.
  RepairKeySpec uniform;  // choose one tuple uniformly
  auto one = RaExpr::Project(RaExpr::RepairKey(RaExpr::Base("e"), uniform),
                             {"i"});
  auto both = RaExpr::Union(
      one, RaExpr::Rename(
               RaExpr::Project(RaExpr::RepairKey(RaExpr::Base("e"), uniform),
                               {"j"}),
               {{"j", "i"}}));
  auto dist = PlanExact(both, GraphInstance());
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(dist->ValidateProper().ok());
  EXPECT_GE(dist->size(), 2u);
  EXPECT_LE(dist->size(), 9u);
}

TEST(RaExprTest, DifferenceAndIntersect) {
  Relation lit(Schema({"i"}));
  lit.Insert(Tuple{Value(1)});
  lit.Insert(Tuple{Value(9)});
  auto diff = PlanExact(
      RaExpr::Difference(RaExpr::Const(lit), RaExpr::Base("c")),
      GraphInstance());
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->outcomes()[0].value.size(), 1u);
  EXPECT_TRUE(diff->outcomes()[0].value.Contains(Tuple{Value(9)}));

  auto inter = PlanExact(
      RaExpr::Intersect(RaExpr::Const(lit), RaExpr::Base("c")),
      GraphInstance());
  ASSERT_TRUE(inter.ok());
  EXPECT_EQ(inter->outcomes()[0].value.size(), 1u);
  EXPECT_TRUE(inter->outcomes()[0].value.Contains(Tuple{Value(1)}));
}

TEST(RaExprTest, ExtendComputesColumn) {
  auto expr = RaExpr::Extend(RaExpr::Base("c"), "two",
                             ScalarExpr::Const(Value(2)));
  auto dist = PlanExact(expr, GraphInstance());
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(dist->outcomes()[0].value.Contains(Tuple{Value(1), Value(2)}));
}

TEST(RaExprTest, SampleMatchesExactSupport) {
  RepairKeySpec spec;
  spec.key_columns = {"i"};
  spec.weight_column = "p";
  auto expr = RaExpr::RepairKey(RaExpr::Join(RaExpr::Base("c"),
                                             RaExpr::Base("e")),
                                spec);
  Rng rng(3);
  int saw3 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    auto world = PlanSample(expr, GraphInstance(), &rng);
    ASSERT_TRUE(world.ok());
    ASSERT_EQ(world->size(), 1u);
    if (world->tuples()[0][1] == Value(3)) ++saw3;
  }
  EXPECT_NEAR(saw3 / static_cast<double>(n), 0.75, 0.02);
}

TEST(RaExprTest, MaxWorldsGuard) {
  // 12 independent binary repair-keys would be 2^12 worlds.
  RepairKeySpec uniform;
  RaExpr::Ptr expr;
  for (int k = 0; k < 12; ++k) {
    auto choice = RaExpr::Rename(
        RaExpr::Project(RaExpr::RepairKey(RaExpr::Base("e"), uniform), {"i"}),
        {{"i", "x" + std::to_string(k)}});
    expr = expr == nullptr ? choice : RaExpr::Product(expr, choice);
  }
  ExactEvalOptions options;
  options.max_worlds = 100;
  auto dist = PlanExact(expr, GraphInstance(), options);
  EXPECT_FALSE(dist.ok());
  EXPECT_EQ(dist.status().code(), StatusCode::kResourceExhausted);
}

TEST(RaExprTest, InferSchemaChecksColumns) {
  std::map<std::string, Schema> schemas{{"e", Schema({"i", "j", "p"})},
                                        {"c", Schema({"i"})}};
  auto join = RaExpr::Join(RaExpr::Base("c"), RaExpr::Base("e"));
  auto s = InferSchema(join, schemas);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), Schema({"i", "j", "p"}));

  EXPECT_FALSE(InferSchema(RaExpr::Project(join, {"zzz"}), schemas).ok());
  EXPECT_FALSE(
      InferSchema(RaExpr::Select(join, Predicate::ColumnEquals("zzz", Value(0))),
                  schemas)
          .ok());
  EXPECT_FALSE(InferSchema(RaExpr::Base("ghost"), schemas).ok());
  // Union arity mismatch.
  EXPECT_FALSE(
      InferSchema(RaExpr::Union(RaExpr::Base("c"), RaExpr::Base("e")), schemas)
          .ok());
  // Product with overlapping columns.
  EXPECT_FALSE(
      InferSchema(RaExpr::Product(RaExpr::Base("c"), RaExpr::Base("e")),
                  schemas)
          .ok());
}

TEST(RaExprTest, InferSchemaRepairKeyPreservesSchema) {
  std::map<std::string, Schema> schemas{{"e", Schema({"i", "j", "p"})}};
  RepairKeySpec spec;
  spec.key_columns = {"i"};
  spec.weight_column = "p";
  auto s = InferSchema(RaExpr::RepairKey(RaExpr::Base("e"), spec), schemas);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), Schema({"i", "j", "p"}));
  RepairKeySpec bad;
  bad.key_columns = {"nope"};
  EXPECT_FALSE(
      InferSchema(RaExpr::RepairKey(RaExpr::Base("e"), bad), schemas).ok());
}

TEST(RaExprTest, ToStringRoundTripsStructure) {
  RepairKeySpec spec;
  spec.key_columns = {"i"};
  spec.weight_column = "p";
  auto expr = RaExpr::RepairKey(RaExpr::Join(RaExpr::Base("c"),
                                             RaExpr::Base("e")),
                                spec);
  EXPECT_EQ(expr->ToString(), "repair-key[i @ p]((c join e))");
}

}  // namespace
}  // namespace pfql
