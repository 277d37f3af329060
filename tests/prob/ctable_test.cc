#include "prob/ctable.h"

#include <gtest/gtest.h>

namespace pfql {
namespace {

RandomVariable Coin(const std::string& name) {
  RandomVariable v;
  v.name = name;
  v.domain = {{Value(int64_t{1}), BigRational(1, 2)},
              {Value(int64_t{0}), BigRational(1, 2)}};
  return v;
}

TEST(RandomVariableTest, ValidateAcceptsProperDistribution) {
  EXPECT_TRUE(Coin("x").Validate().ok());
}

TEST(RandomVariableTest, ValidateRejectsBadDistributions) {
  RandomVariable v = Coin("x");
  v.domain[0].second = BigRational(1, 3);
  EXPECT_FALSE(v.Validate().ok());  // sums to 5/6
  v = Coin("x");
  v.domain.push_back({Value(int64_t{1}), BigRational(1, 2)});
  EXPECT_FALSE(v.Validate().ok());  // duplicate value
  v = Coin("");
  EXPECT_FALSE(v.Validate().ok());  // empty name
  RandomVariable empty;
  empty.name = "y";
  EXPECT_FALSE(empty.Validate().ok());  // empty domain
}

TEST(ConditionTest, EvalLiterals) {
  Valuation val{{"x", Value(1)}};
  EXPECT_TRUE(Condition::True()->Eval(val).value());
  EXPECT_TRUE(Condition::Eq("x", Value(1))->Eval(val).value());
  EXPECT_FALSE(Condition::Eq("x", Value(0))->Eval(val).value());
  EXPECT_TRUE(Condition::Ne("x", Value(0))->Eval(val).value());
  EXPECT_FALSE(Condition::Eq("y", Value(1))->Eval(val).ok());  // unassigned
}

TEST(ConditionTest, EvalConnectives) {
  Valuation val{{"x", Value(1)}, {"y", Value(0)}};
  auto x1 = Condition::Eq("x", Value(1));
  auto y1 = Condition::Eq("y", Value(1));
  EXPECT_FALSE(Condition::And(x1, y1)->Eval(val).value());
  EXPECT_TRUE(Condition::Or(x1, y1)->Eval(val).value());
  EXPECT_TRUE(Condition::Not(y1)->Eval(val).value());
}

TEST(ConditionTest, CollectVariablesDeduplicates) {
  auto c = Condition::And(Condition::Eq("x", Value(1)),
                          Condition::Or(Condition::Ne("x", Value(0)),
                                        Condition::Eq("y", Value(2))));
  std::vector<std::string> vars;
  c->CollectVariables(&vars);
  EXPECT_EQ(vars, (std::vector<std::string>{"x", "y"}));
}

PCDatabase TwoCoinDatabase() {
  PCDatabase pc;
  EXPECT_TRUE(pc.AddVariable(Coin("x")).ok());
  EXPECT_TRUE(pc.AddVariable(Coin("y")).ok());
  CTable t;
  t.schema = Schema({"v"});
  t.rows.push_back({Tuple{Value("both")},
                    Condition::And(Condition::Eq("x", Value(int64_t{1})),
                                   Condition::Eq("y", Value(int64_t{1})))});
  t.rows.push_back({Tuple{Value("anyx")}, Condition::Eq("x", Value(int64_t{1}))});
  t.rows.push_back({Tuple{Value("always")}, Condition::True()});
  EXPECT_TRUE(pc.AddTable("r", std::move(t)).ok());
  return pc;
}

TEST(PCDatabaseTest, RejectsDuplicatesAndUnknownVariables) {
  PCDatabase pc;
  ASSERT_TRUE(pc.AddVariable(Coin("x")).ok());
  EXPECT_FALSE(pc.AddVariable(Coin("x")).ok());
  CTable t;
  t.schema = Schema({"v"});
  t.rows.push_back({Tuple{Value(1)}, Condition::Eq("ghost", Value(1))});
  EXPECT_FALSE(pc.AddTable("r", std::move(t)).ok());
}

TEST(PCDatabaseTest, InstanceForSpecificValuation) {
  PCDatabase pc = TwoCoinDatabase();
  Valuation v{{"x", Value(int64_t{1})}, {"y", Value(int64_t{0})}};
  auto db = pc.InstanceFor(v);
  ASSERT_TRUE(db.ok());
  const Relation* r = db->Find("r");
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->Contains(Tuple{Value("both")}));
  EXPECT_TRUE(r->Contains(Tuple{Value("anyx")}));
  EXPECT_TRUE(r->Contains(Tuple{Value("always")}));
}

TEST(PCDatabaseTest, SampleWorldFrequencies) {
  PCDatabase pc = TwoCoinDatabase();
  Rng rng(17);
  int both = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto db = pc.SampleWorld(&rng);
    ASSERT_TRUE(db.ok());
    if (db->Find("r")->Contains(Tuple{Value("both")})) ++both;
  }
  EXPECT_NEAR(both / static_cast<double>(n), 0.25, 0.015);
}

TEST(PCDatabaseTest, AddBooleanVariableShorthand) {
  PCDatabase pc;
  ASSERT_TRUE(pc.AddBooleanVariable("b", BigRational(1, 3)).ok());
  const auto& var = pc.variables().at("b");
  ASSERT_EQ(var.domain.size(), 2u);
  EXPECT_EQ(var.domain[0].second, BigRational(1, 3));
  EXPECT_EQ(var.domain[1].second, BigRational(2, 3));
}

}  // namespace
}  // namespace pfql
