#include "ra/optimizer.h"

#include <gtest/gtest.h>

#include "ra/random_expr.h"
#include "ra/reference_eval.h"
#include "util/random.h"

namespace pfql {
namespace {

Instance TestInstance() {
  Instance db;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value(1), Value(2), Value(1)});
  e.Insert(Tuple{Value(1), Value(3), Value(3)});
  e.Insert(Tuple{Value(2), Value(3), Value(1)});
  e.Insert(Tuple{Value(3), Value(1), Value(2)});
  db.Set("e", std::move(e));
  Relation c(Schema({"i"}));
  c.Insert(Tuple{Value(1)});
  c.Insert(Tuple{Value(2)});
  db.Set("c", std::move(c));
  return db;
}

std::map<std::string, Schema> TestSchemas() {
  return {{"e", Schema({"i", "j", "p"})}, {"c", Schema({"i"})}};
}

// Distributions compare equal iff same outcomes with same probabilities.
void ExpectSameSemantics(const RaExpr::Ptr& a, const RaExpr::Ptr& b) {
  auto da = reference::EvalExact(a, TestInstance());
  auto db = reference::EvalExact(b, TestInstance());
  ASSERT_TRUE(da.ok()) << da.status();
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_EQ(da->size(), db->size()) << a->ToString() << "\n vs \n"
                                    << b->ToString();
  for (size_t i = 0; i < da->size(); ++i) {
    EXPECT_EQ(da->outcomes()[i].value, db->outcomes()[i].value);
    EXPECT_EQ(da->outcomes()[i].probability, db->outcomes()[i].probability);
  }
}

TEST(OptimizerTest, SelectTrueRemoved) {
  auto expr = RaExpr::Select(RaExpr::Base("e"), Predicate::True());
  auto opt = Optimize(expr);
  EXPECT_EQ(opt->kind(), RaExpr::Kind::kBase);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, StackedSelectsFused) {
  auto expr = RaExpr::Select(
      RaExpr::Select(RaExpr::Base("e"), Predicate::ColumnEquals("i", Value(1))),
      Predicate::ColumnEquals("j", Value(3)));
  auto opt = Optimize(expr);
  EXPECT_EQ(ExprSize(opt), 2u);  // one select over base
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, StackedProjectsFused) {
  auto expr = RaExpr::Project(
      RaExpr::Project(RaExpr::Base("e"), {"i", "j"}), {"j"});
  auto opt = Optimize(expr);
  EXPECT_EQ(ExprSize(opt), 2u);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, RenamesComposed) {
  auto expr = RaExpr::Rename(
      RaExpr::Rename(RaExpr::Base("c"), {{"i", "x"}}), {{"x", "y"}});
  auto opt = Optimize(expr);
  EXPECT_EQ(ExprSize(opt), 2u);
  ASSERT_EQ(opt->kind(), RaExpr::Kind::kRename);
  EXPECT_EQ(opt->renames().at("i"), "y");
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, RenameRoundTripCancelled) {
  auto expr = RaExpr::Rename(
      RaExpr::Rename(RaExpr::Base("c"), {{"i", "x"}}), {{"x", "i"}});
  auto opt = Optimize(expr);
  EXPECT_EQ(opt->kind(), RaExpr::Kind::kBase);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, EmptyUnionPruned) {
  auto expr = RaExpr::Union(RaExpr::Base("c"),
                            RaExpr::Const(Relation(Schema({"i"}))));
  auto opt = Optimize(expr);
  EXPECT_EQ(opt->kind(), RaExpr::Kind::kBase);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, EmptyDifferenceRules) {
  auto sub_empty = RaExpr::Difference(RaExpr::Base("c"),
                                      RaExpr::Const(Relation(Schema({"i"}))));
  EXPECT_EQ(Optimize(sub_empty)->kind(), RaExpr::Kind::kBase);
  auto from_empty = RaExpr::Difference(RaExpr::Const(Relation(Schema({"i"}))),
                                       RaExpr::Base("c"));
  EXPECT_EQ(Optimize(from_empty)->kind(), RaExpr::Kind::kConst);
  ExpectSameSemantics(sub_empty, Optimize(sub_empty));
  ExpectSameSemantics(from_empty, Optimize(from_empty));
}

TEST(OptimizerTest, NullaryUnitProductRemoved) {
  Relation unit{Schema{}};
  unit.Insert(Tuple{});
  auto expr = RaExpr::Product(RaExpr::Base("c"), RaExpr::Const(unit));
  auto opt = Optimize(expr);
  EXPECT_EQ(opt->kind(), RaExpr::Kind::kBase);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, EmptyJoinNeedsSchemas) {
  auto expr = RaExpr::Join(RaExpr::Base("c"),
                           RaExpr::Const(Relation(Schema({"i", "z"}))));
  // Without schemas, the node is kept.
  EXPECT_EQ(Optimize(expr)->kind(), RaExpr::Kind::kJoin);
  // With schemas, it folds to the empty constant.
  auto opt = Optimize(expr, TestSchemas());
  EXPECT_EQ(opt->kind(), RaExpr::Kind::kConst);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, DeterministicRepairKeyFolded) {
  Relation r(Schema({"k", "v"}));
  r.Insert(Tuple{Value(1), Value(10)});
  r.Insert(Tuple{Value(2), Value(20)});
  RepairKeySpec spec;
  spec.key_columns = {"k"};
  auto expr = RaExpr::RepairKey(RaExpr::Const(r), spec);
  auto opt = Optimize(expr);
  EXPECT_EQ(opt->kind(), RaExpr::Kind::kConst);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, ProbabilisticRepairKeyKept) {
  Relation r(Schema({"k", "v"}));
  r.Insert(Tuple{Value(1), Value(10)});
  r.Insert(Tuple{Value(1), Value(20)});
  RepairKeySpec spec;
  spec.key_columns = {"k"};
  auto expr = RaExpr::RepairKey(RaExpr::Const(r), spec);
  EXPECT_EQ(Optimize(expr)->kind(), RaExpr::Kind::kRepairKey);
}

TEST(OptimizerTest, SelectPushedIntoJoin) {
  auto join = RaExpr::Join(RaExpr::Base("c"), RaExpr::Base("e"));
  auto expr = RaExpr::Select(join, Predicate::ColumnEquals("j", Value(3)));
  auto opt = Optimize(expr, TestSchemas());
  // j only exists on the e side: select must sit under the join.
  ASSERT_EQ(opt->kind(), RaExpr::Kind::kJoin);
  EXPECT_EQ(opt->right()->kind(), RaExpr::Kind::kSelect);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, SharedColumnPushedToLeft) {
  auto join = RaExpr::Join(RaExpr::Base("c"), RaExpr::Base("e"));
  auto expr = RaExpr::Select(join, Predicate::ColumnEquals("i", Value(1)));
  auto opt = Optimize(expr, TestSchemas());
  ASSERT_EQ(opt->kind(), RaExpr::Kind::kJoin);
  EXPECT_EQ(opt->left()->kind(), RaExpr::Kind::kSelect);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, SelectOnWideSideStillPushed) {
  // In c ⋈ e every column lives on the e side, so even an i = j predicate
  // is pushable (join equates the shared i).
  auto join = RaExpr::Join(RaExpr::Base("c"), RaExpr::Base("e"));
  auto expr = RaExpr::Select(join, Predicate::ColumnsEqual("i", "j"));
  auto opt = Optimize(expr, TestSchemas());
  ASSERT_EQ(opt->kind(), RaExpr::Kind::kJoin);
  EXPECT_EQ(opt->right()->kind(), RaExpr::Kind::kSelect);
  ExpectSameSemantics(expr, opt);
}

TEST(OptimizerTest, CrossSideSelectNotPushed) {
  // Product with exclusive columns on each side: an x = i predicate spans
  // both sides and must stay above the product.
  auto prod = RaExpr::Product(
      RaExpr::Rename(RaExpr::Base("c"), {{"i", "x"}}), RaExpr::Base("c"));
  auto expr = RaExpr::Select(prod, Predicate::ColumnsEqual("x", "i"));
  auto opt = Optimize(expr, TestSchemas());
  EXPECT_EQ(opt->kind(), RaExpr::Kind::kSelect);
  ExpectSameSemantics(expr, opt);
}

// ---- Property test: random expressions keep their exact semantics. ----

class OptimizerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerPropertyTest, RandomExpressionsPreserveSemantics) {
  RandomExprGen gen(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    RaExpr::Ptr expr = gen.Gen(4);
    RaExpr::Ptr structural = Optimize(expr);
    RaExpr::Ptr schema_aware = Optimize(expr, TestSchemas());
    auto original = reference::EvalExact(expr, TestInstance());
    if (!original.ok()) continue;  // type-invalid expression; skip
    ExpectSameSemantics(expr, structural);
    ExpectSameSemantics(expr, schema_aware);
    EXPECT_LE(ExprSize(structural), ExprSize(expr));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace pfql
