#include "relational/text_io.h"

#include <gtest/gtest.h>

#include <fstream>

#include "util/random.h"

namespace pfql {
namespace {

TEST(TextIoTest, ParsesBasicInstance) {
  auto db = ParseInstanceText(R"(
    # edges of a weighted graph
    relation e(i, j, p) {
      (0, 1, 1)
      (0, 2, 3.5)
    }
    relation c(i) {
      (0)
    }
  )");
  ASSERT_TRUE(db.ok()) << db.status();
  const Relation* e = db->Find("e");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->size(), 2u);
  EXPECT_EQ(e->schema(), Schema({"i", "j", "p"}));
  EXPECT_TRUE(e->Contains(Tuple{Value(0), Value(2), Value(3.5)}));
  EXPECT_EQ(db->Find("c")->size(), 1u);
}

TEST(TextIoTest, ParsesEmptyRelationAndNullaryTuple) {
  auto db = ParseInstanceText("relation empty(x) {}\nrelation flag() { () }");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(db->Find("empty")->empty());
  EXPECT_EQ(db->Find("flag")->size(), 1u);
  EXPECT_EQ(db->Find("flag")->schema().size(), 0u);
}

TEST(TextIoTest, ParsesStringsAndEscapes) {
  auto db = ParseInstanceText(
      "relation s(v) { (\"a b\") (\"q\\\"x\") (\"back\\\\slash\") (bare) }");
  ASSERT_TRUE(db.ok()) << db.status();
  const Relation* s = db->Find("s");
  EXPECT_TRUE(s->Contains(Tuple{Value("a b")}));
  EXPECT_TRUE(s->Contains(Tuple{Value("q\"x")}));
  EXPECT_TRUE(s->Contains(Tuple{Value("back\\slash")}));
  EXPECT_TRUE(s->Contains(Tuple{Value("bare")}));
}

TEST(TextIoTest, ParsesNegativeAndScientificNumbers) {
  auto db = ParseInstanceText("relation n(v) { (-7) (2e3) (-1.5e-2) }");
  ASSERT_TRUE(db.ok()) << db.status();
  const Relation* n = db->Find("n");
  EXPECT_TRUE(n->Contains(Tuple{Value(int64_t{-7})}));
  EXPECT_TRUE(n->Contains(Tuple{Value(2000.0)}));
  EXPECT_TRUE(n->Contains(Tuple{Value(-0.015)}));
}

TEST(TextIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseInstanceText("relation r(x) { (1, 2) }").ok());  // arity
  EXPECT_FALSE(ParseInstanceText("relation r(x, x) {}").ok());  // dup column
  EXPECT_FALSE(ParseInstanceText("table r(x) {}").ok());        // keyword
  EXPECT_FALSE(ParseInstanceText("relation r(x) { (1) ").ok()); // unclosed
  EXPECT_FALSE(ParseInstanceText(
                   "relation r(x) {}\nrelation r(y) {}").ok());  // dup rel
  EXPECT_FALSE(ParseInstanceText("relation r(x) { (\"abc) }").ok());
}

TEST(TextIoTest, FormatRoundTripsExactly) {
  Instance db;
  Relation mixed(Schema({"a", "b", "c"}));
  mixed.Insert(Tuple{Value(1), Value(2.5), Value("hello world")});
  mixed.Insert(Tuple{Value(-3), Value(0.125), Value("quote\"and\\slash")});
  mixed.Insert(Tuple{Value(int64_t{1} << 60), Value(1e-9), Value("x")});
  db.Set("mixed", std::move(mixed));
  db.Set("empty", Relation(Schema({"z"})));

  std::string text = FormatInstance(db);
  auto parsed = ParseInstanceText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  EXPECT_EQ(*parsed, db) << text;
}

TEST(TextIoTest, DoubleThatLooksIntegralRoundTrips) {
  Instance db;
  Relation r(Schema({"v"}));
  r.Insert(Tuple{Value(2.0)});  // would read back as int without the ".0"
  db.Set("r", std::move(r));
  auto parsed = ParseInstanceText(FormatInstance(db));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, db);
  EXPECT_TRUE(parsed->Find("r")->tuples()[0][0].is_double());
}

TEST(TextIoTest, RandomInstancesRoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    Instance db;
    const size_t num_rels = 1 + rng.NextIndex(3);
    for (size_t r = 0; r < num_rels; ++r) {
      const size_t arity = 1 + rng.NextIndex(3);
      std::vector<std::string> cols;
      for (size_t c = 0; c < arity; ++c) {
        cols.push_back("c" + std::to_string(c));
      }
      Relation rel{Schema(cols)};
      const size_t rows = rng.NextIndex(8);
      for (size_t row = 0; row < rows; ++row) {
        Tuple t;
        for (size_t c = 0; c < arity; ++c) {
          switch (rng.NextIndex(3)) {
            case 0:
              t.Append(Value(static_cast<int64_t>(rng.NextIndex(100)) - 50));
              break;
            case 1:
              t.Append(Value(rng.NextDouble()));
              break;
            default:
              t.Append(Value("s" + std::to_string(rng.NextIndex(10))));
          }
        }
        rel.Insert(std::move(t));
      }
      db.Set("rel" + std::to_string(r), std::move(rel));
    }
    auto parsed = ParseInstanceText(FormatInstance(db));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, db);
  }
}

TEST(TextIoTest, FileRoundTrip) {
  Instance db;
  Relation r(Schema({"x"}));
  r.Insert(Tuple{Value(42)});
  db.Set("r", std::move(r));
  const std::string path = "/tmp/pfql_text_io_test.db";
  std::ofstream(path) << FormatInstance(db);
  auto loaded = LoadInstanceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, db);
  EXPECT_FALSE(LoadInstanceFile("/nonexistent/nope.db").ok());
}

}  // namespace
}  // namespace pfql
