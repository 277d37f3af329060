#include "markov/matrix.h"

#include <gtest/gtest.h>

namespace pfql {
namespace {

TEST(SolveLinearSystemTest, Solves2x2) {
  auto x = SolveLinearSystemField<double>({{2, 1}, {1, 3}}, {5, 10});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 1.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 3.0, 1e-12);
}

TEST(SolveLinearSystemTest, DetectsSingular) {
  EXPECT_FALSE(SolveLinearSystemField<double>({{1, 2}, {2, 4}}, {1, 2}).ok());
}

TEST(SolveLinearSystemTest, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  auto x = SolveLinearSystemField<double>({{0, 1}, {1, 0}}, {3, 7});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 7.0, 1e-12);
  EXPECT_NEAR(x.value()[1], 3.0, 1e-12);
}

TEST(SolveLinearSystemFieldTest, ExactRationalSolve) {
  // x + y = 1, x - y = 1/3  =>  x = 2/3, y = 1/3.
  std::vector<std::vector<BigRational>> a{
      {BigRational(1), BigRational(1)},
      {BigRational(1), BigRational(-1)}};
  std::vector<BigRational> b{BigRational(1), BigRational(1, 3)};
  auto x = SolveLinearSystemField<BigRational>(std::move(a), std::move(b));
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x.value()[0], BigRational(2, 3));
  EXPECT_EQ(x.value()[1], BigRational(1, 3));
}

TEST(SolveLinearSystemFieldTest, ExactSingularDetected) {
  std::vector<std::vector<BigRational>> a{
      {BigRational(1), BigRational(2)},
      {BigRational(2), BigRational(4)}};
  std::vector<BigRational> b{BigRational(1), BigRational(2)};
  EXPECT_FALSE(
      SolveLinearSystemField<BigRational>(std::move(a), std::move(b)).ok());
}

TEST(SolveLinearSystemFieldTest, RejectsMalformedSystems) {
  std::vector<std::vector<BigRational>> nonsquare{
      {BigRational(1), BigRational(2)}};
  std::vector<BigRational> b{BigRational(1)};
  EXPECT_FALSE(
      SolveLinearSystemField<BigRational>(std::move(nonsquare), std::move(b))
          .ok());
  std::vector<std::vector<BigRational>> square{{BigRational(1)}};
  std::vector<BigRational> wrong_b{BigRational(1), BigRational(2)};
  EXPECT_FALSE(
      SolveLinearSystemField<BigRational>(std::move(square),
                                          std::move(wrong_b))
          .ok());
}

}  // namespace
}  // namespace pfql
