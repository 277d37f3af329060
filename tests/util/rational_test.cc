#include "util/rational.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace pfql {
namespace {

TEST(BigRationalTest, DefaultIsZero) {
  BigRational z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.ToString(), "0");
}

TEST(BigRationalTest, NormalizesOnConstruction) {
  EXPECT_EQ(BigRational(2, 4).ToString(), "1/2");
  EXPECT_EQ(BigRational(-2, 4).ToString(), "-1/2");
  EXPECT_EQ(BigRational(2, -4).ToString(), "-1/2");
  EXPECT_EQ(BigRational(-2, -4).ToString(), "1/2");
  EXPECT_EQ(BigRational(4, 2).ToString(), "2");
  EXPECT_EQ(BigRational(0, 17).ToString(), "0");
}

TEST(BigRationalTest, ArithmeticKnownValues) {
  EXPECT_EQ((BigRational(1, 2) + BigRational(1, 3)).ToString(), "5/6");
  EXPECT_EQ((BigRational(1, 2) - BigRational(1, 3)).ToString(), "1/6");
  EXPECT_EQ((BigRational(2, 3) * BigRational(3, 4)).ToString(), "1/2");
  EXPECT_EQ((BigRational(2, 3) / BigRational(4, 3)).ToString(), "1/2");
}

TEST(BigRationalTest, SumsToOneExactly) {
  // 17/20 + 3/20 (the basketball Table 2 repair probabilities).
  EXPECT_TRUE((BigRational(17, 20) + BigRational(3, 20)).IsOne());
  // 1/3 * 3 is exactly 1 (doubles cannot do this).
  BigRational third(1, 3);
  EXPECT_TRUE((third + third + third).IsOne());
}

TEST(BigRationalTest, TinyProbabilitiesStayExact) {
  // (1/2)^200 - representable only with big integers.
  BigRational half(1, 2);
  BigRational p(1);
  for (int i = 0; i < 200; ++i) p *= half;
  EXPECT_EQ(p.num().ToString(), "1");
  EXPECT_EQ(p.den(), BigInt::Pow(BigInt(2), 200));
  // Summing 2^200 of them gives exactly 1.
  BigRational total = p * BigRational(BigInt::Pow(BigInt(2), 200), BigInt(1));
  EXPECT_TRUE(total.IsOne());
}

TEST(BigRationalTest, CompareAcrossDenominators) {
  EXPECT_LT(BigRational(1, 3), BigRational(1, 2));
  EXPECT_LT(BigRational(-1, 2), BigRational(-1, 3));
  EXPECT_EQ(BigRational(2, 6), BigRational(1, 3));
  EXPECT_GT(BigRational(7, 8), BigRational(6, 7));
}

TEST(BigRationalTest, FromDoubleIsExactForDyadics) {
  auto v = BigRational::FromDouble(0.375);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().ToString(), "3/8");
  auto w = BigRational::FromDouble(-2.0);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value().ToString(), "-2");
  auto z = BigRational::FromDouble(0.0);
  ASSERT_TRUE(z.ok());
  EXPECT_TRUE(z.value().IsZero());
}

TEST(BigRationalTest, FromDoubleRejectsNonFinite) {
  EXPECT_FALSE(BigRational::FromDouble(1.0 / 0.0).ok());
  EXPECT_FALSE(BigRational::FromDouble(0.0 / 0.0).ok());
}

TEST(BigRationalTest, ToDoubleAccuracy) {
  EXPECT_DOUBLE_EQ(BigRational(1, 2).ToDouble(), 0.5);
  EXPECT_DOUBLE_EQ(BigRational(-3, 4).ToDouble(), -0.75);
  EXPECT_NEAR(BigRational(1, 3).ToDouble(), 1.0 / 3.0, 1e-15);
  // Huge numerator/denominator pair whose ratio is 1.5.
  BigInt big = BigInt::Pow(BigInt(7), 400);
  BigRational huge(big * BigInt(3), big * BigInt(2));
  EXPECT_DOUBLE_EQ(huge.ToDouble(), 1.5);
}

class BigRationalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BigRationalPropertyTest, FieldAxioms) {
  Rng rng(GetParam());
  auto random_rational = [&rng]() {
    int64_t num = static_cast<int64_t>(rng.Next() % 2000) - 1000;
    int64_t den = static_cast<int64_t>(rng.Next() % 999) + 1;
    return BigRational(num, den);
  };
  BigRational a = random_rational(), b = random_rational(),
              c = random_rational();
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a - a, BigRational(0));
  if (!b.IsZero()) {
    EXPECT_EQ(a / b * b, a);
  }
  // Compare is antisymmetric and consistent with subtraction.
  EXPECT_EQ(a.Compare(b), -b.Compare(a));
  EXPECT_EQ(a.Compare(b) < 0, (a - b).IsNegative());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigRationalPropertyTest,
                         ::testing::Range(uint64_t{100}, uint64_t{116}));

}  // namespace
}  // namespace pfql
