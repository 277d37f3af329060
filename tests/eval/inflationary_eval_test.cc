#include "eval/inflationary.h"

#include <gtest/gtest.h>

#include "gadgets/sat.h"

namespace pfql {
namespace eval {
namespace {

using gadgets::AllTrueCnf;
using gadgets::CnfFormula;
using gadgets::InflationarySatGadgetPC;
using gadgets::RandomCnf;
using gadgets::UnsatCnf;

TEST(ApproxParamsTest, HoeffdingSampleCount) {
  ApproxParams p;
  p.epsilon = 0.1;
  p.delta = 0.05;
  // ln(40)/(2*0.01) = 184.44 -> 185.
  EXPECT_EQ(HoeffdingCount(p.epsilon, p.delta).value(), 185u);
  p.epsilon = 0.05;
  EXPECT_EQ(HoeffdingCount(p.epsilon, p.delta).value(), 738u);
}

TEST(ExactInflationaryTest, DeterministicProgramYieldsZeroOrOne) {
  auto program = datalog::ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  ASSERT_TRUE(program.ok());
  Instance edb;
  Relation e(Schema({"i", "j"}));
  e.Insert(Tuple{Value(1), Value(2)});
  e.Insert(Tuple{Value(2), Value(3)});
  edb.Set("e", std::move(e));
  auto p_hit = ExactInflationary(*program, edb,
                                 {"t", Tuple{Value(1), Value(3)}});
  ASSERT_TRUE(p_hit.ok());
  EXPECT_TRUE(p_hit.value().IsOne());
  auto p_miss = ExactInflationary(*program, edb,
                                  {"t", Tuple{Value(3), Value(1)}});
  ASSERT_TRUE(p_miss.ok());
  EXPECT_TRUE(p_miss.value().IsZero());
}

TEST(ExactInflationaryOverPCTest, Lemma42SatisfiableCount) {
  // Lemma 4.2: the query result equals #sat(F)/2^n exactly.
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    CnfFormula f = RandomCnf(3, 3, 2, &rng);
    auto gadget = InflationarySatGadgetPC(f);
    ASSERT_TRUE(gadget.ok()) << gadget.status();
    auto p = ExactInflationaryOverPC(gadget->program, gadget->pc,
                                     gadget->certain_edb, gadget->event);
    ASSERT_TRUE(p.ok()) << p.status();
    BigRational expected(static_cast<int64_t>(f.CountSatisfying()),
                         int64_t{1} << f.num_variables);
    EXPECT_EQ(p.value(), expected) << f.ToString();
  }
}

TEST(ExactInflationaryOverPCTest, Lemma42UnsatisfiableGivesZero) {
  auto gadget = InflationarySatGadgetPC(UnsatCnf());
  ASSERT_TRUE(gadget.ok());
  auto p = ExactInflationaryOverPC(gadget->program, gadget->pc,
                                   gadget->certain_edb, gadget->event);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().IsZero());
}

TEST(ExactInflationaryOverPCTest, Lemma42AllTrueFormula) {
  // AllTrueCnf has exactly one satisfying assignment: p = 2^-n.
  auto gadget = InflationarySatGadgetPC(AllTrueCnf(4));
  ASSERT_TRUE(gadget.ok());
  auto p = ExactInflationaryOverPC(gadget->program, gadget->pc,
                                   gadget->certain_edb, gadget->event);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(1, 16));
}

TEST(ExactInflationaryOverPCTest, RepairKeyVariantMatchesPCVariant) {
  // Thm 4.1's two input encodings (c-table vs repair-key on a base
  // relation) must give identical query probabilities.
  Rng rng(11);
  CnfFormula f = RandomCnf(3, 2, 2, &rng);
  auto pc_gadget = InflationarySatGadgetPC(f);
  ASSERT_TRUE(pc_gadget.ok());
  auto rk_gadget = gadgets::InflationarySatGadgetRepairKey(f);
  ASSERT_TRUE(rk_gadget.ok());

  auto p_pc = ExactInflationaryOverPC(pc_gadget->program, pc_gadget->pc,
                                      pc_gadget->certain_edb,
                                      pc_gadget->event);
  ASSERT_TRUE(p_pc.ok());
  auto p_rk = ExactInflationary(rk_gadget->program, rk_gadget->certain_edb,
                                rk_gadget->event);
  ASSERT_TRUE(p_rk.ok()) << p_rk.status();
  EXPECT_EQ(p_pc.value(), p_rk.value());
}

TEST(ApproxInflationaryTest, Thm43EstimateWithinEpsilon) {
  // Weighted two-way choice: exact p = 1/4; the approximation must land
  // within epsilon (up to the delta failure probability; fixed seed).
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value("a"), Value("b"), Value(1)});
  e.Insert(Tuple{Value("a"), Value("c"), Value(3)});
  edb.Set("e", std::move(e));
  auto program = datalog::ParseProgram(R"(
    cur(a).
    c2(<X>, Y) @P :- cur(X), e(X, Y, P).
    cur(Y) :- c2(X, Y).
  )");
  ASSERT_TRUE(program.ok());
  ApproxParams params;
  params.epsilon = 0.05;
  params.delta = 0.01;
  Rng rng(123);
  auto result = ApproxInflationary(*program, edb, {"cur", Tuple{Value("b")}},
                                   params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->samples,
            HoeffdingCount(params.epsilon, params.delta).value());
  EXPECT_NEAR(result->estimate, 0.25, params.epsilon);
  EXPECT_GT(result->total_steps, 0u);
}

TEST(ApproxInflationaryTest, RejectsEpsilonAndDeltaOutsideTheirRanges) {
  // The Hoeffding count needs epsilon in (0, 1] and delta in (0, 1); any
  // other value would give a non-finite or meaningless sample budget.
  auto program = datalog::ParseProgram("cur(a).");
  ASSERT_TRUE(program.ok());
  const std::pair<double, double> bad[] = {
      {0.0, 0.05}, {-0.1, 0.05}, {1.5, 0.05}, {1e-300, 0.05},
      {0.1, 0.0},  {0.1, 1.0},   {0.1, 3.0},
  };
  for (const auto& [epsilon, delta] : bad) {
    ApproxParams params;
    params.epsilon = epsilon;
    params.delta = delta;
    params.max_samples = 4;  // the range check holds with a budget override
    Rng rng(1);
    auto result = ApproxInflationary(*program, Instance{},
                                     {"cur", Tuple{Value("a")}}, params, &rng);
    ASSERT_FALSE(result.ok()) << epsilon << " " << delta;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    const std::string field = delta > 0.0 && delta < 1.0 ? "epsilon" : "delta";
    EXPECT_NE(result.status().message().find(field), std::string::npos)
        << result.status();
  }
}

TEST(ApproxInflationaryOverPCTest, Thm43OverCTables) {
  // SAT gadget with known p = 1/4 (2 variables, one clause (v0)).
  CnfFormula f;
  f.num_variables = 2;
  f.clauses.push_back({{0, true}});
  f.clauses.push_back({{1, true}});
  auto gadget = InflationarySatGadgetPC(f);
  ASSERT_TRUE(gadget.ok());
  ApproxParams params;
  params.epsilon = 0.05;
  params.delta = 0.01;
  Rng rng(77);
  auto result = ApproxInflationaryOverPC(gadget->program, gadget->pc,
                                         gadget->certain_edb, gadget->event,
                                         params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result->estimate, 0.25, params.epsilon);
}

TEST(ApproxInflationaryTest, AgreesWithExactOnRandomGadgets) {
  Rng rng(17);
  for (int trial = 0; trial < 3; ++trial) {
    CnfFormula f = RandomCnf(3, 2, 2, &rng);
    auto gadget = InflationarySatGadgetPC(f);
    ASSERT_TRUE(gadget.ok());
    auto exact = ExactInflationaryOverPC(gadget->program, gadget->pc,
                                         gadget->certain_edb, gadget->event);
    ASSERT_TRUE(exact.ok());
    ApproxParams params;
    params.epsilon = 0.07;
    params.delta = 0.02;
    auto approx = ApproxInflationaryOverPC(gadget->program, gadget->pc,
                                           gadget->certain_edb, gadget->event,
                                           params, &rng);
    ASSERT_TRUE(approx.ok());
    EXPECT_NEAR(approx->estimate, exact.value().ToDouble(), params.epsilon)
        << f.ToString();
  }
}

}  // namespace
}  // namespace eval
}  // namespace pfql
