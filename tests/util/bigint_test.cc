#include "util/bigint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/random.h"

namespace pfql {
namespace {

BigInt Abs(const BigInt& x) { return x.IsNegative() ? -x : x; }

// The remainder of truncated division, with the sign of the dividend.
BigInt Rem(const BigInt& n, const BigInt& d) {
  BigInt q, r;
  BigInt::DivMod(n, d, &q, &r);
  return r;
}

// A value of exactly `limbs` 32-bit limbs with the given sign. The top
// limb has its high bit set when `top_bit` (Algorithm D's shift is then 0)
// and clear otherwise. Limbs are drawn from the edge values 0 and 2^32 - 1
// as well as uniformly, which reaches the quotient-limb corrections.
BigInt RandomLimbs(Rng& rng, size_t limbs, bool top_bit, bool negative) {
  const BigInt base = BigInt::Pow(BigInt(2), 32);
  BigInt v;
  for (size_t i = 0; i < limbs; ++i) {
    uint32_t limb = static_cast<uint32_t>(rng.Next());
    switch (rng.NextIndex(4)) {
      case 0:
        limb = 0xffffffffu;
        break;
      case 1:
        limb = 0;
        break;
      default:
        break;
    }
    if (i == 0) {
      limb = top_bit ? limb | 0x80000000u
                     : std::max<uint32_t>(limb & 0x7fffffffu, 1);
    }
    v = v * base + BigInt(int64_t{limb});
  }
  return negative ? -v : v;
}

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
  EXPECT_EQ(z.ToString(), "0");
}

TEST(BigIntTest, FromInt64RoundTrips) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{-123456789}, INT64_MAX, INT64_MIN}) {
    BigInt b(v);
    auto back = b.ToInt64();
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(back.value(), v);
    EXPECT_EQ(b.ToString(), std::to_string(v));
  }
}

TEST(BigIntTest, Int64MinHandledWithoutOverflow) {
  BigInt b(INT64_MIN);
  EXPECT_EQ(b.ToString(), "-9223372036854775808");
  EXPECT_TRUE((-b).ToInt64().ok() == false ||
              (-b).ToString() == "9223372036854775808");
  EXPECT_EQ((-b).ToString(), "9223372036854775808");
}

TEST(BigIntTest, AdditionBasics) {
  EXPECT_EQ((BigInt(2) + BigInt(3)).ToString(), "5");
  EXPECT_EQ((BigInt(-2) + BigInt(3)).ToString(), "1");
  EXPECT_EQ((BigInt(2) + BigInt(-3)).ToString(), "-1");
  EXPECT_EQ((BigInt(-2) + BigInt(-3)).ToString(), "-5");
  EXPECT_EQ((BigInt(5) + BigInt(-5)).ToString(), "0");
}

TEST(BigIntTest, CarryPropagation) {
  BigInt a(int64_t{0xffffffff});
  EXPECT_EQ((a + BigInt(1)).ToString(), "4294967296");
  BigInt b = BigInt::Pow(BigInt(2), 64) - BigInt(1);
  EXPECT_EQ((b + BigInt(1)).ToString(), "18446744073709551616");
}

TEST(BigIntTest, MultiplicationBasics) {
  EXPECT_EQ((BigInt(6) * BigInt(7)).ToString(), "42");
  EXPECT_EQ((BigInt(-6) * BigInt(7)).ToString(), "-42");
  EXPECT_EQ((BigInt(-6) * BigInt(-7)).ToString(), "42");
  EXPECT_EQ((BigInt(0) * BigInt(12345)).ToString(), "0");
}

TEST(BigIntTest, LargeMultiplicationKnownValue) {
  // 2^128 computed two ways.
  BigInt p64 = BigInt::Pow(BigInt(2), 64);
  EXPECT_EQ((p64 * p64).ToString(), "340282366920938463463374607431768211456");
  EXPECT_EQ(BigInt::Pow(BigInt(2), 128).ToString(),
            "340282366920938463463374607431768211456");
}

TEST(BigIntTest, FactorialKnownValue) {
  BigInt f(1);
  for (int i = 2; i <= 30; ++i) f *= BigInt(i);
  EXPECT_EQ(f.ToString(), "265252859812191058636308480000000");
}

TEST(BigIntTest, DivisionBasics) {
  EXPECT_EQ((BigInt(42) / BigInt(7)).ToString(), "6");
  EXPECT_EQ((BigInt(43) / BigInt(7)).ToString(), "6");
  EXPECT_EQ(Rem(BigInt(43), BigInt(7)).ToString(), "1");
  EXPECT_EQ((BigInt(-43) / BigInt(7)).ToString(), "-6");
  EXPECT_EQ(Rem(BigInt(-43), BigInt(7)).ToString(), "-1");
  EXPECT_EQ((BigInt(43) / BigInt(-7)).ToString(), "-6");
}

TEST(BigIntTest, DivisionLargeByLarge) {
  BigInt a = BigInt::Pow(BigInt(10), 40);
  BigInt b = BigInt::Pow(BigInt(10), 20);
  EXPECT_EQ((a / b).ToString(), b.ToString());
  EXPECT_TRUE(Rem(a, b).IsZero());
}

TEST(BigIntTest, DivModReconstructsDividend) {
  // Dividends of 1-8 limbs over divisors of 1-6 limbs, each divisor with
  // its top bit set and clear, under all four sign combinations.
  Rng rng(7);
  for (int trial = 0; trial < 4000; ++trial) {
    const bool top_bit = (trial & 1) != 0;
    const bool n_negative = (trial & 2) != 0;
    const bool d_negative = (trial & 4) != 0;
    const BigInt n = RandomLimbs(rng, 1 + rng.NextIndex(8),
                                 rng.NextBernoulli(0.5), n_negative);
    const BigInt d = RandomLimbs(rng, 1 + rng.NextIndex(6), top_bit,
                                 d_negative);
    BigInt q, r;
    BigInt::DivMod(n, d, &q, &r);
    EXPECT_EQ(q * d + r, n) << n << " / " << d;
    EXPECT_LT(Abs(r), Abs(d)) << n << " / " << d;
    EXPECT_TRUE(r.IsZero() || r.IsNegative() == n.IsNegative())
        << n << " / " << d;
    EXPECT_TRUE(q.IsZero() || q.IsNegative() == (n_negative != d_negative))
        << n << " / " << d;
  }
}

TEST(BigIntTest, DivModQuotientCorrectionCases) {
  // Operands that reach Algorithm D's rare corrections, checked against
  // Python's integers. In the first two, a quotient-limb estimate survives
  // the two-limb test one too large, so the divisor is added back; in the
  // third, the estimate is two too large and the test corrects it twice.
  struct Case {
    const char* n;
    const char* d;
    const char* q;
    const char* r;
  };
  const Case cases[] = {
      // The divisor's top bit is set: shift 0.
      {"340282367079394788491903282623151079427",
       "39614081275578912872629010432", "8589934591",
       "39614081257132168803214426115"},
      {"730750818495310275720601347168388659822632894463",
       "39614081247908796766359650303", "18446744073709551615",
       "36893488160304005118"},
      {"39614083655204704421432223885", "9223372599495491572", "4294967293",
       "9219179818735069289"},
  };
  for (const Case& c : cases) {
    const BigInt n = BigInt::FromString(c.n).value();
    const BigInt d = BigInt::FromString(c.d).value();
    for (int signs = 0; signs < 4; ++signs) {
      const BigInt sn = (signs & 1) ? -n : n;
      const BigInt sd = (signs & 2) ? -d : d;
      BigInt q, r;
      BigInt::DivMod(sn, sd, &q, &r);
      const bool q_negative = ((signs & 1) != 0) != ((signs & 2) != 0);
      EXPECT_EQ(q.ToString(), (q_negative ? "-" : "") + std::string(c.q));
      EXPECT_EQ(r.ToString(), ((signs & 1) ? "-" : "") + std::string(c.r));
    }
  }
}

TEST(BigIntTest, CompareOrdering) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_EQ(BigInt(7), BigInt(7));
  EXPECT_LT(BigInt(7), BigInt::Pow(BigInt(2), 100));
  EXPECT_LT(-BigInt::Pow(BigInt(2), 100), BigInt(-7));
}

TEST(BigIntTest, GcdKnownValues) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToString(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToString(), "1");
}

TEST(BigIntTest, GcdOfMultiLimbMultiplesScalesByTheFactor) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const BigInt a = RandomLimbs(rng, 1 + rng.NextIndex(5),
                                 rng.NextBernoulli(0.5), trial & 1);
    const BigInt b = RandomLimbs(rng, 1 + rng.NextIndex(5),
                                 rng.NextBernoulli(0.5), trial & 2);
    const BigInt g = RandomLimbs(rng, 1 + rng.NextIndex(4),
                                 rng.NextBernoulli(0.5), false);
    EXPECT_EQ(BigInt::Gcd(a * g, b * g), g * BigInt::Gcd(a, b))
        << a << ", " << b << ", " << g;
  }
}

TEST(BigIntTest, GcdWithZeroIsTheAbsoluteValue) {
  const BigInt big = BigInt::Pow(BigInt(3), 150);
  for (const BigInt& x : {BigInt(0), BigInt(5), BigInt(-5), big, -big}) {
    EXPECT_EQ(BigInt::Gcd(x, BigInt(0)), Abs(x)) << x;
    EXPECT_EQ(BigInt::Gcd(BigInt(0), x), Abs(x)) << x;
  }
}

TEST(BigIntTest, PowEdgeCases) {
  EXPECT_EQ(BigInt::Pow(BigInt(5), 0).ToString(), "1");
  EXPECT_EQ(BigInt::Pow(BigInt(5), 1).ToString(), "5");
  EXPECT_EQ(BigInt::Pow(BigInt(0), 5).ToString(), "0");
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 3).ToString(), "-8");
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 4).ToString(), "16");
}

TEST(BigIntTest, FromStringRoundTrip) {
  for (const char* s :
       {"0", "1", "-1", "123456789012345678901234567890",
        "-999999999999999999999999"}) {
    auto v = BigInt::FromString(s);
    ASSERT_TRUE(v.ok()) << s;
    EXPECT_EQ(v.value().ToString(), s);
  }
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
  EXPECT_FALSE(BigInt::FromString("12a").ok());
  EXPECT_FALSE(BigInt::FromString("1.5").ok());
}

TEST(BigIntTest, NegativeZeroNormalized) {
  auto v = BigInt::FromString("-0");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.value().IsNegative());
  EXPECT_EQ(v.value(), BigInt(0));
}

TEST(BigIntTest, ToDoubleApproximates) {
  EXPECT_DOUBLE_EQ(BigInt(12345).ToDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).ToDouble(), -12345.0);
  EXPECT_NEAR(BigInt::Pow(BigInt(2), 70).ToDouble(), std::pow(2.0, 70),
              1e-6 * std::pow(2.0, 70));
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(2).BitLength(), 2u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::Pow(BigInt(2), 100).BitLength(), 101u);
}

TEST(BigIntTest, CopyMoveAndSelfAssignment) {
  // 4 limbs fit inside the object; 3^150 (238 bits) spills to the heap.
  const BigInt inline_value = -(BigInt::Pow(BigInt(2), 128) - BigInt(1));
  const BigInt spilled_value = -BigInt::Pow(BigInt(3), 150);
  for (const BigInt& original : {inline_value, spilled_value}) {
    const std::string text = original.ToString();
    BigInt copy(original);
    EXPECT_EQ(copy.ToString(), text);
    copy += BigInt(1);  // the copy owns its limbs
    EXPECT_EQ(original.ToString(), text);

    BigInt source(original);
    BigInt moved(std::move(source));
    EXPECT_EQ(moved.ToString(), text);
    EXPECT_EQ(source, BigInt(0));  // a moved-from BigInt is zero
    EXPECT_FALSE(source.IsNegative());
    BigInt move_assigned(7);
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned.ToString(), text);

    // Assignment over a smaller and over a larger value.
    BigInt over_small(7);
    over_small = original;
    EXPECT_EQ(over_small.ToString(), text);
    BigInt over_large = BigInt::Pow(BigInt(5), 300);
    over_large = original;
    EXPECT_EQ(over_large.ToString(), text);

    BigInt self(original);
    BigInt& alias = self;
    self = alias;
    EXPECT_EQ(self.ToString(), text);
    self = std::move(alias);
    EXPECT_EQ(self.ToString(), text);
  }
}

// Property sweep: ring axioms on random values.
class BigIntPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BigIntPropertyTest, RingAxioms) {
  // Operands of 1-6 limbs, so sums and products cross the 4-limb (128-bit)
  // inline capacity upwards and differences and quotients cross it back.
  Rng rng(GetParam());
  auto random_big = [&rng]() {
    return RandomLimbs(rng, 1 + rng.NextIndex(6), rng.NextBernoulli(0.5),
                       rng.NextBernoulli(0.5));
  };
  for (int trial = 0; trial < 16; ++trial) {
    BigInt a = random_big(), b = random_big(), c = random_big();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a * b) / b, a);
    EXPECT_TRUE(Rem(a * b, b).IsZero());
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ(a + BigInt(0), a);
    EXPECT_EQ(a * BigInt(1), a);
  }
  // 2^128 - 1 is the largest inline magnitude; one more spills.
  const BigInt max_inline = BigInt::Pow(BigInt(2), 128) - BigInt(1);
  const BigInt spilled = max_inline + BigInt(1);
  EXPECT_EQ(spilled.BitLength(), 129u);
  EXPECT_EQ(spilled - BigInt(1), max_inline);
  EXPECT_EQ((max_inline * max_inline) / max_inline, max_inline);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

}  // namespace
}  // namespace pfql
