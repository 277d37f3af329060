#include "lang/ctable_macro.h"

#include <gtest/gtest.h>

namespace pfql {
namespace {

PCDatabase OneCoin() {
  PCDatabase pc;
  EXPECT_TRUE(pc.AddBooleanVariable("x", BigRational(1, 2)).ok());
  CTable t;
  t.schema = Schema({"lit"});
  t.rows.push_back({Tuple{Value("pos")}, Condition::Eq("x", Value(int64_t{1}))});
  t.rows.push_back({Tuple{Value("neg")}, Condition::Eq("x", Value(int64_t{0}))});
  EXPECT_TRUE(pc.AddTable("a", std::move(t)).ok());
  return pc;
}

TEST(CTableMacroTest, ExpandsToVarValsAndKernel) {
  auto macro = ExpandPCDatabase(OneCoin());
  ASSERT_TRUE(macro.ok());
  EXPECT_TRUE(macro->base_relations.Has("__varvals"));
  EXPECT_TRUE(macro->base_relations.Has("__assign"));
  EXPECT_TRUE(macro->base_relations.Has("a"));
  EXPECT_TRUE(macro->kernel.Defines("__assign"));
  EXPECT_TRUE(macro->kernel.Defines("a"));
  // varvals: 2 rows for x.
  EXPECT_EQ(macro->base_relations.Find("__varvals")->size(), 2u);
}

TEST(CTableMacroTest, KernelStepResamplesTable) {
  auto macro = ExpandPCDatabase(OneCoin());
  ASSERT_TRUE(macro.ok());
  // One kernel application from the initial state: __assign becomes each
  // of the two assignments with probability 1/2; table a read the initial
  // assignment (deterministic), so focus on __assign's distribution.
  auto kernel = macro->kernel.Compile(macro->base_relations);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto dist = (*kernel)->Exact(macro->base_relations);
  ASSERT_TRUE(dist.ok());
  EXPECT_TRUE(dist->ValidateProper().ok());
  BigRational p_x1 = dist->ProbabilityOf([](const Instance& db) {
    const Relation* assign = db.Find("__assign");
    for (const auto& t : assign->tuples()) {
      if (t[0] == Value("x") && t[1] == Value(int64_t{1})) return true;
    }
    return false;
  });
  EXPECT_EQ(p_x1, BigRational(1, 2));
}

TEST(CTableMacroTest, TwoStepsTableTracksAssignment) {
  // After two steps, the table 'a' reflects the assignment sampled in step
  // one; Pr[a contains "pos"] should be exactly 1/2.
  auto macro = ExpandPCDatabase(OneCoin());
  ASSERT_TRUE(macro.ok());
  auto kernel = macro->kernel.Compile(macro->base_relations);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto step1 = (*kernel)->Exact(macro->base_relations);
  ASSERT_TRUE(step1.ok());
  BigRational p_pos;
  for (const auto& w1 : step1->outcomes()) {
    auto step2 = (*kernel)->Exact(w1.value);
    ASSERT_TRUE(step2.ok());
    for (const auto& w2 : step2->outcomes()) {
      if (w2.value.Find("a")->Contains(Tuple{Value("pos")})) {
        p_pos += w1.probability * w2.probability;
      }
    }
  }
  EXPECT_EQ(p_pos, BigRational(1, 2));
}

TEST(CTableMacroTest, NonUniformWeightsScaledToIntegers) {
  PCDatabase pc;
  RandomVariable v;
  v.name = "z";
  v.domain = {{Value("a"), BigRational(1, 3)},
              {Value("b"), BigRational(2, 3)}};
  ASSERT_TRUE(pc.AddVariable(std::move(v)).ok());
  CTable t;
  t.schema = Schema({"s"});
  t.rows.push_back({Tuple{Value("hit")}, Condition::Eq("z", Value("a"))});
  ASSERT_TRUE(pc.AddTable("r", std::move(t)).ok());

  auto macro = ExpandPCDatabase(pc);
  ASSERT_TRUE(macro.ok());
  auto kernel = macro->kernel.Compile(macro->base_relations);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto dist = (*kernel)->Exact(macro->base_relations);
  ASSERT_TRUE(dist.ok());
  BigRational p_a = dist->ProbabilityOf([](const Instance& db) {
    for (const auto& t : db.Find("__assign")->tuples()) {
      if (t[1] == Value("a")) return true;
    }
    return false;
  });
  EXPECT_EQ(p_a, BigRational(1, 3));
}

TEST(CTableMacroTest, ComplexConditionViaTruthTable) {
  PCDatabase pc;
  ASSERT_TRUE(pc.AddBooleanVariable("x", BigRational(1, 2)).ok());
  ASSERT_TRUE(pc.AddBooleanVariable("y", BigRational(1, 2)).ok());
  CTable t;
  t.schema = Schema({"s"});
  // XOR condition: (x=1 and y=0) or (x=0 and y=1).
  auto xor_cond = Condition::Or(
      Condition::And(Condition::Eq("x", Value(int64_t{1})),
                     Condition::Eq("y", Value(int64_t{0}))),
      Condition::And(Condition::Eq("x", Value(int64_t{0})),
                     Condition::Eq("y", Value(int64_t{1}))));
  t.rows.push_back({Tuple{Value("xor")}, xor_cond});
  ASSERT_TRUE(pc.AddTable("r", std::move(t)).ok());

  auto macro = ExpandPCDatabase(pc);
  ASSERT_TRUE(macro.ok());
  // Two steps: step 1 samples __assign, step 2 materializes r from it.
  auto kernel = macro->kernel.Compile(macro->base_relations);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto step1 = (*kernel)->Exact(macro->base_relations);
  ASSERT_TRUE(step1.ok());
  BigRational p_xor;
  for (const auto& w1 : step1->outcomes()) {
    auto step2 = (*kernel)->Exact(w1.value);
    ASSERT_TRUE(step2.ok());
    for (const auto& w2 : step2->outcomes()) {
      if (w2.value.Find("r")->Contains(Tuple{Value("xor")})) {
        p_xor += w1.probability * w2.probability;
      }
    }
  }
  EXPECT_EQ(p_xor, BigRational(1, 2));
}

TEST(CTableMacroTest, ReservedPrefixRejected) {
  PCDatabase pc;
  ASSERT_TRUE(pc.AddBooleanVariable("x", BigRational(1, 2)).ok());
  CTable t;
  t.schema = Schema({"s"});
  t.rows.push_back({Tuple{Value(1)}, Condition::True()});
  ASSERT_TRUE(pc.AddTable("__sneaky", std::move(t)).ok());
  EXPECT_FALSE(ExpandPCDatabase(pc).ok());
}

TEST(CTableMacroTest, UnsatisfiableConditionDropsRow) {
  PCDatabase pc;
  ASSERT_TRUE(pc.AddBooleanVariable("x", BigRational(1, 2)).ok());
  CTable t;
  t.schema = Schema({"s"});
  t.rows.push_back({Tuple{Value("never")},
                    Condition::And(Condition::Eq("x", Value(int64_t{1})),
                                   Condition::Eq("x", Value(int64_t{0})))});
  t.rows.push_back({Tuple{Value("always")}, Condition::True()});
  ASSERT_TRUE(pc.AddTable("r", std::move(t)).ok());
  auto macro = ExpandPCDatabase(pc);
  ASSERT_TRUE(macro.ok());
  auto kernel = macro->kernel.Compile(macro->base_relations);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto step1 = (*kernel)->Exact(macro->base_relations);
  ASSERT_TRUE(step1.ok());
  for (const auto& w : step1->outcomes()) {
    EXPECT_FALSE(w.value.Find("r")->Contains(Tuple{Value("never")}));
    EXPECT_TRUE(w.value.Find("r")->Contains(Tuple{Value("always")}));
  }
}

}  // namespace
}  // namespace pfql
