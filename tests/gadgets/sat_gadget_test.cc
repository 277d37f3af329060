#include "gadgets/sat.h"

#include <gtest/gtest.h>

#include "datalog/translate.h"
#include "eval/noninflationary.h"
#include "markov/state_space.h"

namespace pfql {
namespace gadgets {
namespace {

TEST(CnfFormulaTest, SatisfiesAndCount) {
  // (v0 | v1) & (!v0 | v1): satisfied by v1=1 (2 assignments) plus none else.
  CnfFormula f;
  f.num_variables = 2;
  f.clauses = {{{0, true}, {1, true}}, {{0, false}, {1, true}}};
  EXPECT_TRUE(f.Satisfies({false, true}));
  EXPECT_TRUE(f.Satisfies({true, true}));
  EXPECT_FALSE(f.Satisfies({true, false}));
  EXPECT_EQ(f.CountSatisfying(), 2u);
  EXPECT_TRUE(f.IsSatisfiable());
}

TEST(CnfFormulaTest, SpecialFormulas) {
  EXPECT_EQ(AllTrueCnf(3).CountSatisfying(), 1u);
  EXPECT_FALSE(UnsatCnf().IsSatisfiable());
  EXPECT_EQ(UnsatCnf().CountSatisfying(), 0u);
}

TEST(CnfFormulaTest, RandomCnfShape) {
  Rng rng(2);
  CnfFormula f = RandomCnf(5, 7, 3, &rng);
  EXPECT_EQ(f.num_variables, 5u);
  ASSERT_EQ(f.clauses.size(), 7u);
  for (const auto& clause : f.clauses) {
    EXPECT_EQ(clause.size(), 3u);
    // Distinct variables within a clause.
    for (size_t i = 0; i < clause.size(); ++i) {
      for (size_t j = i + 1; j < clause.size(); ++j) {
        EXPECT_NE(clause[i].variable, clause[j].variable);
      }
    }
  }
}

TEST(InflationaryGadgetTest, ProgramShapeIsLinearWithoutRepairKey) {
  auto gadget = InflationarySatGadgetPC(AllTrueCnf(2));
  ASSERT_TRUE(gadget.ok());
  // Thm 4.1 conditions: linear datalog, no probabilistic rules (variant 2').
  EXPECT_TRUE(gadget->program.IsLinear());
  EXPECT_FALSE(gadget->program.HasProbabilisticRules());
  EXPECT_EQ(gadget->pc.variables().size(), 2u);
}

TEST(InflationaryGadgetTest, RepairKeyVariantUsesBaseRelationOnly) {
  auto gadget = InflationarySatGadgetRepairKey(AllTrueCnf(2));
  ASSERT_TRUE(gadget.ok());
  EXPECT_TRUE(gadget->program.HasProbabilisticRules());
  EXPECT_TRUE(gadget->pc.variables().empty());
  // The probabilistic rule's body is the base relation atbl.
  bool found = false;
  for (const auto& rule : gadget->program.rules()) {
    if (rule.head.IsProbabilistic()) {
      ASSERT_EQ(rule.body.size(), 1u);
      EXPECT_EQ(rule.body[0].predicate, "atbl");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(NonInflationaryGadgetTest, Lemma52SatisfiableGivesOne) {
  // Tiny satisfiable formula: one variable, clause (v0). Long-run
  // Pr[done] must be exactly 1 (Lemma 5.2).
  CnfFormula f;
  f.num_variables = 1;
  f.clauses = {{{0, true}}};
  auto gadget = NonInflationarySatGadgetPC(f);
  ASSERT_TRUE(gadget.ok());
  auto tq = datalog::TranslateNonInflationaryWithPC(
      gadget->program, gadget->pc, gadget->certain_edb);
  ASSERT_TRUE(tq.ok()) << tq.status();
  auto result = eval::ExactForever({tq->kernel, gadget->event}, tq->initial);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->probability.IsOne());
}

TEST(NonInflationaryGadgetTest, Lemma52UnsatisfiableGivesZero) {
  auto gadget = NonInflationarySatGadgetPC(UnsatCnf());
  ASSERT_TRUE(gadget.ok());
  auto tq = datalog::TranslateNonInflationaryWithPC(
      gadget->program, gadget->pc, gadget->certain_edb);
  ASSERT_TRUE(tq.ok());
  StateSpaceOptions options;
  options.max_states = 1 << 12;
  auto result = eval::ExactForever({tq->kernel, gadget->event}, tq->initial,
                                   options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->probability.IsZero());
}

TEST(NonInflationaryGadgetTest, Lemma52TwoVariableFormula) {
  // (v0 & v1): satisfiable; the walk must still reach done with prob 1.
  CnfFormula f = AllTrueCnf(2);
  auto gadget = NonInflationarySatGadgetPC(f);
  ASSERT_TRUE(gadget.ok());
  auto tq = datalog::TranslateNonInflationaryWithPC(
      gadget->program, gadget->pc, gadget->certain_edb);
  ASSERT_TRUE(tq.ok());
  StateSpaceOptions options;
  options.max_states = 1 << 14;
  auto result = eval::ExactForever({tq->kernel, gadget->event}, tq->initial,
                                   options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->probability.IsOne());
}

TEST(NonInflationaryGadgetTest, SampledWalkEventuallyHitsDone) {
  // Sampling view of Lemma 5.2: for a satisfiable formula the walk hits
  // done within a reasonable number of steps.
  CnfFormula f = AllTrueCnf(3);
  auto gadget = NonInflationarySatGadgetPC(f);
  ASSERT_TRUE(gadget.ok());
  auto tq = datalog::TranslateNonInflationaryWithPC(
      gadget->program, gadget->pc, gadget->certain_edb);
  ASSERT_TRUE(tq.ok());
  auto kernel = tq->kernel.Compile(tq->initial);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  Rng rng(3);
  Instance state = tq->initial;
  bool hit = false;
  for (int step = 0; step < 500 && !hit; ++step) {
    ASSERT_TRUE((*kernel)->Step(&state, &rng).ok());
    hit = gadget->event.Holds(state);
  }
  EXPECT_TRUE(hit);
}

}  // namespace
}  // namespace gadgets
}  // namespace pfql
