#include "lang/interpretation.h"

#include <gtest/gtest.h>

namespace pfql {
namespace {

// Two-node graph: 1 -> 2 (prob 1/4), 1 -> 3 (prob 3/4); 2, 3 absorbing.
Instance WalkInstance() {
  Instance db;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value(1), Value(2), Value(1)});
  e.Insert(Tuple{Value(1), Value(3), Value(3)});
  e.Insert(Tuple{Value(2), Value(2), Value(1)});
  e.Insert(Tuple{Value(3), Value(3), Value(1)});
  db.Set("e", std::move(e));
  Relation c(Schema({"i"}));
  c.Insert(Tuple{Value(1)});
  db.Set("cur", std::move(c));
  return db;
}

Interpretation WalkKernel() {
  RepairKeySpec spec;
  spec.key_columns = {"i"};
  spec.weight_column = "p";
  Interpretation q;
  q.Define("cur", RaExpr::Rename(
                      RaExpr::Project(
                          RaExpr::RepairKey(
                              RaExpr::Join(RaExpr::Base("cur"),
                                           RaExpr::Base("e")),
                              spec),
                          {"j"}),
                      {{"j", "i"}}));
  return q;
}

TEST(InterpretationTest, ApplyExactStepDistribution) {
  auto kernel = WalkKernel().Compile(WalkInstance());
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto dist = (*kernel)->Exact(WalkInstance());
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 2u);
  EXPECT_TRUE(dist->ValidateProper().ok());
  for (const auto& o : dist->outcomes()) {
    // e carried over unchanged in every world.
    EXPECT_EQ(o.value.Find("e")->size(), 4u);
    const Relation* cur = o.value.Find("cur");
    ASSERT_EQ(cur->size(), 1u);
    if (cur->Contains(Tuple{Value(2)})) {
      EXPECT_EQ(o.probability, BigRational(1, 4));
    } else {
      EXPECT_EQ(o.probability, BigRational(3, 4));
    }
  }
}

TEST(InterpretationTest, UndefinedRelationsCarryOver) {
  Interpretation q = WalkKernel();
  EXPECT_TRUE(q.Defines("cur"));
  EXPECT_FALSE(q.Defines("e"));
  auto kernel = q.Compile(WalkInstance());
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto dist = (*kernel)->Exact(WalkInstance());
  ASSERT_TRUE(dist.ok());
  for (const auto& o : dist->outcomes()) {
    EXPECT_TRUE(o.value.Has("e"));
  }
}

TEST(InterpretationTest, ApplySampleReadsOldState) {
  // Kernel with two entries: swap a and b; parallel firing means both read
  // the old state, so the values exchange rather than cascade.
  Instance db;
  Relation a(Schema({"x"})), b(Schema({"x"}));
  a.Insert(Tuple{Value(1)});
  b.Insert(Tuple{Value(2)});
  db.Set("a", std::move(a));
  db.Set("b", std::move(b));
  Interpretation q;
  q.Define("a", RaExpr::Base("b"));
  q.Define("b", RaExpr::Base("a"));
  Rng rng(1);
  auto kernel = q.Compile(db);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  Instance next = db;
  ASSERT_TRUE((*kernel)->Step(&next, &rng).ok());
  EXPECT_TRUE(next.Find("a")->Contains(Tuple{Value(2)}));
  EXPECT_TRUE(next.Find("b")->Contains(Tuple{Value(1)}));
}

TEST(InterpretationTest, ExactSampleAgreement) {
  // Empirical sample frequencies of Step match Exact.
  Interpretation q = WalkKernel();
  Instance db = WalkInstance();
  auto kernel = q.Compile(db);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  Rng rng(42);
  int to2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Instance next = db;
    ASSERT_TRUE((*kernel)->Step(&next, &rng).ok());
    if (next.Find("cur")->Contains(Tuple{Value(2)})) ++to2;
  }
  EXPECT_NEAR(to2 / static_cast<double>(n), 0.25, 0.01);
}

TEST(QueryEventTest, HoldsChecksTupleMembership) {
  QueryEvent event{"cur", Tuple{Value(1)}};
  EXPECT_TRUE(event.Holds(WalkInstance()));
  QueryEvent missing{"cur", Tuple{Value(9)}};
  EXPECT_FALSE(missing.Holds(WalkInstance()));
  QueryEvent no_rel{"ghost", Tuple{Value(1)}};
  EXPECT_FALSE(no_rel.Holds(WalkInstance()));
}

TEST(InterpretationTest, MaxWorldsGuardOnStep) {
  Interpretation q;
  RepairKeySpec uniform;
  // 16 independent single-choice repair-keys on e: huge product.
  RaExpr::Ptr expr;
  for (int k = 0; k < 16; ++k) {
    auto choice = RaExpr::Rename(
        RaExpr::Project(RaExpr::RepairKey(RaExpr::Base("e"), uniform), {"i"}),
        {{"i", "x" + std::to_string(k)}});
    expr = expr == nullptr ? choice : RaExpr::Product(expr, choice);
  }
  q.Define("big", expr);
  ExactEvalOptions options;
  options.max_worlds = 50;
  auto kernel = q.Compile(WalkInstance());
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto dist = (*kernel)->Exact(WalkInstance(), options);
  EXPECT_FALSE(dist.ok());
}

}  // namespace
}  // namespace pfql
