#include "relational/value.h"

#include <gtest/gtest.h>

#include <limits>

#include "relational/instance.h"
#include "relational/schema.h"
#include "relational/text_io.h"
#include "relational/tuple.h"

namespace pfql {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_TRUE(Value(int64_t{1}).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value().is_int());
  EXPECT_EQ(Value().AsInt(), 0);
}

TEST(ValueTest, OrderWithinTypes) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.0), Value(2.0));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_EQ(Value("abc"), Value("abc"));
}

TEST(ValueTest, OrderAcrossTypesIsByTypeTag) {
  // int < double < string regardless of content (canonical sort order).
  EXPECT_LT(Value(999), Value(0.5));
  EXPECT_LT(Value(0.5), Value("a"));
  EXPECT_NE(Value(1), Value(1.0));
}

TEST(ValueTest, ToNumericCoercions) {
  auto a = Value(3).ToNumeric();
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a.value(), 3.0);
  auto b = Value(2.5).ToNumeric();
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(b.value(), 2.5);
  EXPECT_FALSE(Value("x").ToNumeric().ok());
}

TEST(ValueTest, ToExactNumeric) {
  auto a = Value(17).ToExactNumeric();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), BigRational(17));
  auto b = Value(0.5).ToExactNumeric();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), BigRational(1, 2));
  EXPECT_FALSE(Value("x").ToExactNumeric().ok());
}

TEST(ValueTest, HashRespectsEquality) {
  EXPECT_EQ(Value(7).Hash(), Value(7).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_NE(Value(1).Hash(), Value(1.0).Hash());
}

// A double prints as the shortest text that reads back as it, and never as
// an int: the caches key on printed program text.
TEST(ValueTest, DoublesPrintWithoutLoss) {
  EXPECT_EQ(Value(1).ToString(), "1");
  EXPECT_EQ(Value(1.0).ToString(), "1.0");
  EXPECT_EQ(Value(0.1).ToString(), "0.1");
  EXPECT_EQ(Value(-2.5).ToString(), "-2.5");
  EXPECT_EQ(Value(0.1234567).ToString(), "0.1234567");
  EXPECT_EQ(Value(0.1234568).ToString(), "0.1234568");
  EXPECT_EQ(Value(1e-7).ToString(), "1e-07");

  const double doubles[] = {0.1,       1.0,       2.0,       0.50000015,
                            1e-7,      1e21,      1e300,     1.0 / 3,
                            0.1234567, 0.1234568, -123456789.0,
                            2.2250738585072014e-308,
                            std::numeric_limits<double>::denorm_min()};
  for (const double d : doubles) {
    Instance db;
    Relation r(Schema({"v"}));
    r.Insert(Tuple{Value(d)});
    db.Set("r", std::move(r));
    auto parsed = ParseInstanceText(FormatInstance(db));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const Value& back = parsed->Find("r")->tuples()[0][0];
    ASSERT_TRUE(back.is_double()) << Value(d).ToString();
    EXPECT_EQ(back.AsDouble(), d) << Value(d).ToString();
  }
}

TEST(SchemaTest, ValidateRejectsDuplicatesAndEmpty) {
  EXPECT_TRUE(Schema({"a", "b"}).Validate().ok());
  EXPECT_FALSE(Schema({"a", "a"}).Validate().ok());
  EXPECT_FALSE(Schema({"a", ""}).Validate().ok());
  EXPECT_TRUE(Schema{}.Validate().ok());
}

TEST(SchemaTest, IndexOfAndIndicesOf) {
  Schema s({"i", "j", "p"});
  EXPECT_EQ(s.IndexOf("j").value(), 1u);
  EXPECT_FALSE(s.IndexOf("zzz").has_value());
  auto idx = s.IndicesOf({"p", "i"});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), (std::vector<size_t>{2, 0}));
  EXPECT_FALSE(s.IndicesOf({"i", "nope"}).ok());
}

TEST(SchemaTest, JoinWithComputesUnionSchema) {
  Schema a({"x", "y"}), b({"y", "z"});
  EXPECT_EQ(a.JoinWith(b), Schema({"x", "y", "z"}));
}

TEST(SchemaTest, ConcatDisjointRejectsOverlap) {
  Schema a({"x"}), b({"x", "y"});
  EXPECT_FALSE(a.ConcatDisjoint(b).ok());
  auto c = a.ConcatDisjoint(Schema({"y"}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), Schema({"x", "y"}));
}

TEST(TupleTest, ProjectReordersAndRepeats) {
  Tuple t{Value(1), Value("a"), Value(2.5)};
  Tuple p = t.Project({2, 0, 0});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], Value(2.5));
  EXPECT_EQ(p[1], Value(1));
  EXPECT_EQ(p[2], Value(1));
}

TEST(TupleTest, LexicographicOrder) {
  EXPECT_LT(Tuple({Value(1), Value(2)}), Tuple({Value(1), Value(3)}));
  EXPECT_LT(Tuple({Value(1)}), Tuple({Value(1), Value(0)}));
  EXPECT_EQ(Tuple({Value("a")}), Tuple({Value("a")}));
}

TEST(TupleTest, ToStringFormat) {
  EXPECT_EQ(Tuple({Value(1), Value("x")}).ToString(), "(1, x)");
  EXPECT_EQ(Tuple{}.ToString(), "()");
}

}  // namespace
}  // namespace pfql
