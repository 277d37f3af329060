// Exact forever answers (Prop 5.4, Thm 5.5) pinned to literal values, on
// chains whose elimination runs through multi-limb BigRational arithmetic.
// Other checks compare against answers computed by the same binary, so a
// deterministic arithmetic bug would pass them; it cannot pass these.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "datalog/program.h"
#include "datalog/query_parse.h"
#include "datalog/translate.h"
#include "eval/noninflationary.h"
#include "eval/partition.h"
#include "relational/text_io.h"

namespace pfql {
namespace eval {
namespace {

std::string ReadTestData(const std::string& name) {
  std::ifstream in(std::string(PFQL_REPO_DIR) + "/tests/data/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The rule behind tests/data/ring8.db: an n-node two-way ring whose two
// edges leaving node i both weigh 1 + (i mod 3).
std::string RingData(int n) {
  std::string out = "relation one(k) {\n  (0)\n}\nrelation e(i, j, p) {\n";
  for (int i = 0; i < n; ++i) {
    const std::string w = std::to_string(1 + i % 3);
    out += "  (" + std::to_string(i) + ", " + std::to_string((i + 1) % n) +
           ", " + w + ")\n";
    out += "  (" + std::to_string(i) + ", " +
           std::to_string((i + n - 1) % n) + ", " + w + ")\n";
  }
  return out + "}\n";
}

datalog::Program Walk() {
  auto program = datalog::ParseProgram(ReadTestData("walk.dl"));
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

Instance Edb(const std::string& text) {
  auto edb = ParseInstanceText(text);
  EXPECT_TRUE(edb.ok()) << edb.status();
  return std::move(edb).value();
}

std::string Forever(const Instance& edb, const char* event) {
  auto tq = datalog::TranslateNonInflationary(Walk(), edb);
  EXPECT_TRUE(tq.ok()) << tq.status();
  auto query_event = datalog::ParseGroundAtom(event);
  EXPECT_TRUE(query_event.ok()) << query_event.status();
  auto r = ExactForever({tq->kernel, *query_event}, tq->initial);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->probability.ToString() : "";
}

TEST(NoninflationaryPinnedTest, RingDataFollowsTheRing8Rule) {
  EXPECT_EQ(RingData(8), ReadTestData("ring8.db"));
}

TEST(NoninflationaryPinnedTest, ForeverOnRing8) {
  const Instance ring8 = Edb(ReadTestData("ring8.db"));
  EXPECT_EQ(Forever(ring8, "cur(1)"), "4203/15196");
  EXPECT_EQ(Forever(ring8, "cur(4)"), "207/7598");
}

TEST(NoninflationaryPinnedTest, PartitionOnRing8) {
  auto event = datalog::ParseGroundAtom("cur(1)");
  ASSERT_TRUE(event.ok()) << event.status();
  auto r = PartitionedExactForever(Walk(), Edb(ReadTestData("ring8.db")),
                                   *event);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->probability.ToString(), "4203/15196");
}

TEST(NoninflationaryPinnedTest, ForeverOnRing10) {
  EXPECT_EQ(Forever(Edb(RingData(10)), "cur(1)"), "389841/1402294");
}

}  // namespace
}  // namespace eval
}  // namespace pfql
