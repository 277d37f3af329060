#include "relational/relation.h"

#include <gtest/gtest.h>

#include "relational/instance.h"

namespace pfql {
namespace {

Relation MakeRel(std::vector<int64_t> xs) {
  Relation r(Schema({"x"}));
  for (int64_t x : xs) r.Insert(Tuple{Value(x)});
  return r;
}

TEST(RelationTest, MakeSortsAndDedups) {
  auto r = Relation::Make(Schema({"x"}),
                          {Tuple{Value(3)}, Tuple{Value(1)}, Tuple{Value(3)}});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ(r->tuples()[0], Tuple{Value(1)});
  EXPECT_EQ(r->tuples()[1], Tuple{Value(3)});
}

TEST(RelationTest, MakeRejectsArityMismatch) {
  EXPECT_FALSE(
      Relation::Make(Schema({"x"}), {Tuple{Value(1), Value(2)}}).ok());
}

TEST(RelationTest, InsertMaintainsCanonicalForm) {
  Relation r(Schema({"x"}));
  EXPECT_TRUE(r.Insert(Tuple{Value(5)}));
  EXPECT_TRUE(r.Insert(Tuple{Value(1)}));
  EXPECT_FALSE(r.Insert(Tuple{Value(5)}));  // duplicate
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuples()[0], Tuple{Value(1)});
  EXPECT_TRUE(r.Contains(Tuple{Value(5)}));
  EXPECT_FALSE(r.Contains(Tuple{Value(9)}));
}

TEST(RelationTest, EraseRemoves) {
  Relation r = MakeRel({1, 2, 3});
  EXPECT_TRUE(r.Erase(Tuple{Value(2)}));
  EXPECT_FALSE(r.Erase(Tuple{Value(2)}));
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, SetOperations) {
  Relation a = MakeRel({1, 2, 3});
  Relation b = MakeRel({2, 3, 4});
  auto u = a.UnionWith(b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 4u);
  auto d = a.DifferenceWith(b);
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->size(), 1u);
  EXPECT_TRUE(d->Contains(Tuple{Value(1)}));
  auto i = a.IntersectWith(b);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->size(), 2u);
}

TEST(RelationTest, SetOperationsRejectArityMismatch) {
  Relation a = MakeRel({1});
  Relation b(Schema({"x", "y"}));
  b.Insert(Tuple{Value(1), Value(2)});
  EXPECT_FALSE(a.UnionWith(b).ok());
  EXPECT_FALSE(a.DifferenceWith(b).ok());
}

TEST(RelationTest, UnionWithEmptyKeepsOtherSchema) {
  Relation empty;
  Relation b = MakeRel({1});
  auto u = empty.UnionWith(b);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 1u);
}

TEST(RelationTest, UnionWithKeepsTheArityInvariant) {
  Relation unary(Schema({"x"}));
  Relation binary(Schema({"p", "q"}));
  binary.Insert(Tuple{Value(1), Value(2)});
  // An empty (x) receiver would keep its schema over a 2-ary tuple.
  auto u = unary.UnionWith(binary);
  EXPECT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kTypeError);
  // So would the zero-column empty tuple under the (p, q) schema it takes.
  Relation nullary{Schema{}};
  nullary.Insert(Tuple{});
  EXPECT_EQ(nullary.UnionWith(binary).status().code(), StatusCode::kTypeError);
  // An empty other side adds no tuple, so its arity does not matter.
  auto kept = binary.UnionWith(unary);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->schema(), binary.schema());
  // The zero-column default still accumulates.
  auto acc = Relation().UnionWith(binary);
  ASSERT_TRUE(acc.ok());
  EXPECT_EQ(acc->schema(), binary.schema());
  EXPECT_EQ(acc->size(), 1u);
}

TEST(RelationTest, SubsetChecks) {
  EXPECT_TRUE(MakeRel({1, 2}).IsSubsetOf(MakeRel({1, 2, 3})));
  EXPECT_FALSE(MakeRel({1, 4}).IsSubsetOf(MakeRel({1, 2, 3})));
  EXPECT_TRUE(MakeRel({}).IsSubsetOf(MakeRel({1})));
}

TEST(RelationTest, EqualityIgnoresSchemaNames) {
  Relation a(Schema({"x"})), b(Schema({"y"}));
  a.Insert(Tuple{Value(1)});
  b.Insert(Tuple{Value(1)});
  EXPECT_EQ(a, b);  // positional semantics
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(RelationTest, CompareIsTotalOrder) {
  Relation a = MakeRel({1});
  Relation b = MakeRel({1, 2});
  Relation c = MakeRel({2});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_LT(a.Compare(c), 0);
  EXPECT_EQ(a.Compare(MakeRel({1})), 0);
}

TEST(RelationTest, ZeroAryRelation) {
  Relation r{Schema{}};
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.Insert(Tuple{}));
  EXPECT_FALSE(r.Insert(Tuple{}));  // the one possible tuple
  EXPECT_EQ(r.size(), 1u);
}

TEST(InstanceTest, GetSetFind) {
  Instance db;
  db.Set("r", MakeRel({1, 2}));
  EXPECT_TRUE(db.Has("r"));
  EXPECT_FALSE(db.Has("s"));
  auto r = db.Get("r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_FALSE(db.Get("s").ok());
  EXPECT_NE(db.Find("r"), nullptr);
  EXPECT_EQ(db.Find("s"), nullptr);
}

TEST(InstanceTest, EqualityAndHash) {
  Instance a, b;
  a.Set("r", MakeRel({1}));
  b.Set("r", MakeRel({1}));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Set("r", MakeRel({2}));
  EXPECT_NE(a, b);
  Instance c;
  c.Set("other", MakeRel({1}));
  EXPECT_NE(a, c);
}

TEST(InstanceTest, CompareTotalOrder) {
  Instance a, b;
  a.Set("r", MakeRel({1}));
  b.Set("r", MakeRel({1}));
  EXPECT_EQ(a.Compare(b), 0);
  b.Set("s", MakeRel({}));
  EXPECT_NE(a.Compare(b), 0);
  EXPECT_EQ(a.Compare(b), -b.Compare(a));
}

TEST(InstanceTest, ActiveDomain) {
  Instance db;
  db.Set("r", MakeRel({3, 1}));
  Relation s(Schema({"a", "b"}));
  s.Insert(Tuple{Value(1), Value("x")});
  db.Set("s", std::move(s));
  auto domain = db.ActiveDomain();
  ASSERT_EQ(domain.size(), 3u);  // 1, 3, "x" deduplicated
  EXPECT_EQ(domain[0], Value(1));
  EXPECT_EQ(domain[1], Value(3));
  EXPECT_EQ(domain[2], Value("x"));
}

TEST(InstanceTest, TotalTuples) {
  Instance db;
  db.Set("r", MakeRel({1, 2}));
  db.Set("s", MakeRel({5}));
  EXPECT_EQ(db.TotalTuples(), 3u);
}

}  // namespace
}  // namespace pfql
