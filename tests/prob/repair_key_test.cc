#include "prob/repair_key.h"

#include <gtest/gtest.h>

#include <map>

namespace pfql {
namespace {

// The paper's Table 2: basketball players with belief weights.
Relation BasketballTable() {
  Relation r(Schema({"player", "team", "belief"}));
  r.Insert(Tuple{Value("bryant"), Value("lakers"), Value(17)});
  r.Insert(Tuple{Value("bryant"), Value("knicks"), Value(3)});
  r.Insert(Tuple{Value("iverson"), Value("sixers"), Value(8)});
  r.Insert(Tuple{Value("iverson"), Value("grizzlies"), Value(7)});
  return r;
}

RepairKeySpec PlayerAtBelief() {
  RepairKeySpec spec;
  spec.key_columns = {"player"};
  spec.weight_column = "belief";
  return spec;
}

TEST(RepairKeyTest, Example22BasketballWorlds) {
  auto dist = RepairKeyEnumerate(BasketballTable(), PlayerAtBelief());
  ASSERT_TRUE(dist.ok());
  // 2 choices for bryant x 2 for iverson = 4 worlds.
  ASSERT_EQ(dist->size(), 4u);
  EXPECT_TRUE(dist->ValidateProper().ok());

  // Exact probabilities from the paper: 17/20 * 8/15 etc.
  std::map<std::pair<std::string, std::string>, BigRational> expected{
      {{"lakers", "sixers"}, BigRational(17, 20) * BigRational(8, 15)},
      {{"lakers", "grizzlies"}, BigRational(17, 20) * BigRational(7, 15)},
      {{"knicks", "sixers"}, BigRational(3, 20) * BigRational(8, 15)},
      {{"knicks", "grizzlies"}, BigRational(3, 20) * BigRational(7, 15)},
  };
  for (const auto& outcome : dist->outcomes()) {
    ASSERT_EQ(outcome.value.size(), 2u);
    std::string bryant_team, iverson_team;
    for (const auto& t : outcome.value.tuples()) {
      if (t[0] == Value("bryant")) bryant_team = t[1].AsString();
      if (t[0] == Value("iverson")) iverson_team = t[1].AsString();
    }
    auto it = expected.find({bryant_team, iverson_team});
    ASSERT_NE(it, expected.end()) << bryant_team << "/" << iverson_team;
    EXPECT_EQ(outcome.probability, it->second);
  }
}

TEST(RepairKeyTest, UniformWhenNoWeightColumn) {
  Relation r(Schema({"k", "v"}));
  r.Insert(Tuple{Value(1), Value("a")});
  r.Insert(Tuple{Value(1), Value("b")});
  r.Insert(Tuple{Value(1), Value("c")});
  RepairKeySpec spec;
  spec.key_columns = {"k"};
  auto dist = RepairKeyEnumerate(r, spec);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 3u);
  for (const auto& o : dist->outcomes()) {
    EXPECT_EQ(o.probability, BigRational(1, 3));
  }
}

TEST(RepairKeyTest, EmptyKeyChoosesSingleTuple) {
  Relation r(Schema({"v", "w"}));
  r.Insert(Tuple{Value("x"), Value(1)});
  r.Insert(Tuple{Value("y"), Value(3)});
  RepairKeySpec spec;
  spec.weight_column = "w";
  auto dist = RepairKeyEnumerate(r, spec);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 2u);
  for (const auto& o : dist->outcomes()) {
    ASSERT_EQ(o.value.size(), 1u);
    if (o.value.tuples()[0][0] == Value("x")) {
      EXPECT_EQ(o.probability, BigRational(1, 4));
    } else {
      EXPECT_EQ(o.probability, BigRational(3, 4));
    }
  }
}

TEST(RepairKeyTest, EmptyRelationYieldsSingleEmptyWorld) {
  Relation r(Schema({"k", "v"}));
  RepairKeySpec spec;
  spec.key_columns = {"k"};
  auto dist = RepairKeyEnumerate(r, spec);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 1u);
  EXPECT_TRUE(dist->outcomes()[0].value.empty());
  EXPECT_TRUE(dist->outcomes()[0].probability.IsOne());
}

TEST(RepairKeyTest, KeyOnAllColumnsIsIdentity) {
  Relation r(Schema({"a", "b"}));
  r.Insert(Tuple{Value(1), Value(2)});
  r.Insert(Tuple{Value(3), Value(4)});
  RepairKeySpec spec;
  spec.key_columns = {"a", "b"};
  auto dist = RepairKeyEnumerate(r, spec);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 1u);
  EXPECT_EQ(dist->outcomes()[0].value, r);
}

TEST(RepairKeyTest, ZeroWeightAlternativeDropped) {
  Relation r(Schema({"k", "w"}));
  r.Insert(Tuple{Value(1), Value(0)});
  r.Insert(Tuple{Value(1), Value(5)});
  RepairKeySpec spec;
  spec.key_columns = {"k"};
  spec.weight_column = "w";
  auto dist = RepairKeyEnumerate(r, spec);
  ASSERT_TRUE(dist.ok());
  ASSERT_EQ(dist->size(), 1u);
  EXPECT_TRUE(dist->outcomes()[0].value.Contains(Tuple{Value(1), Value(5)}));
}

TEST(RepairKeyTest, AllZeroGroupIsError) {
  Relation r(Schema({"k", "w"}));
  r.Insert(Tuple{Value(1), Value(0)});
  RepairKeySpec spec;
  spec.key_columns = {"k"};
  spec.weight_column = "w";
  EXPECT_FALSE(RepairKeyEnumerate(r, spec).ok());
  Rng rng(1);
  EXPECT_FALSE(RepairKeySample(r, spec, &rng).ok());
}

TEST(RepairKeyTest, NegativeWeightIsError) {
  Relation r(Schema({"k", "w"}));
  r.Insert(Tuple{Value(1), Value(-2)});
  RepairKeySpec spec;
  spec.key_columns = {"k"};
  spec.weight_column = "w";
  EXPECT_FALSE(RepairKeyEnumerate(r, spec).ok());
}

TEST(RepairKeyTest, StringWeightIsError) {
  Relation r(Schema({"k", "w"}));
  r.Insert(Tuple{Value(1), Value("heavy")});
  RepairKeySpec spec;
  spec.key_columns = {"k"};
  spec.weight_column = "w";
  EXPECT_FALSE(RepairKeyEnumerate(r, spec).ok());
}

TEST(RepairKeyTest, MissingColumnsAreErrors) {
  Relation r = BasketballTable();
  RepairKeySpec bad_key;
  bad_key.key_columns = {"nope"};
  EXPECT_FALSE(RepairKeyEnumerate(r, bad_key).ok());
  RepairKeySpec bad_weight;
  bad_weight.key_columns = {"player"};
  bad_weight.weight_column = "nope";
  EXPECT_FALSE(RepairKeyEnumerate(r, bad_weight).ok());
}

TEST(RepairKeyTest, GroupsExposeNormalizedAlternatives) {
  auto groups = RepairKeyGroups(BasketballTable(), PlayerAtBelief());
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 2u);
  for (const auto& g : *groups) {
    BigRational total;
    for (const auto& [_, p] : g.alternatives) total += p;
    EXPECT_TRUE(total.IsOne());
  }
}

TEST(RepairKeyTest, SampleMatchesEnumeratedSupport) {
  Rng rng(99);
  std::map<std::string, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto world = RepairKeySample(BasketballTable(), PlayerAtBelief(), &rng);
    ASSERT_TRUE(world.ok());
    ASSERT_EQ(world->size(), 2u);
    for (const auto& t : world->tuples()) {
      if (t[0] == Value("bryant")) counts[t[1].AsString()]++;
    }
  }
  // Pr[lakers] = 17/20 = 0.85.
  EXPECT_NEAR(counts["lakers"] / static_cast<double>(n), 0.85, 0.01);
  EXPECT_NEAR(counts["knicks"] / static_cast<double>(n), 0.15, 0.01);
}

TEST(RepairKeyTest, SampleEachWorldHasOneTuplePerKey) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    auto world = RepairKeySample(BasketballTable(), PlayerAtBelief(), &rng);
    ASSERT_TRUE(world.ok());
    EXPECT_EQ(world->size(), 2u);
  }
}

}  // namespace
}  // namespace pfql
