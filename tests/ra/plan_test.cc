// Compiled plans against the tree-walking reference evaluator
// (reference_eval.h), and the schema-stability rule of compiled kernels.
#include "ra/plan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "datalog/program.h"
#include "datalog/translate.h"
#include "gadgets/graphs.h"
#include "gadgets/mcmc.h"
#include "lang/ctable_macro.h"
#include "lang/interpretation.h"
#include "ra/random_expr.h"
#include "ra/reference_eval.h"
#include "relational/text_io.h"

namespace pfql {
namespace {

Instance TestInstance() {
  Instance db;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value(1), Value(2), Value(1)});
  e.Insert(Tuple{Value(1), Value(3), Value(3)});
  e.Insert(Tuple{Value(2), Value(3), Value(1)});
  e.Insert(Tuple{Value(3), Value(1), Value(2)});
  e.Insert(Tuple{Value(3), Value(2), Value(5)});
  db.Set("e", std::move(e));
  Relation c(Schema({"i"}));
  c.Insert(Tuple{Value(1)});
  c.Insert(Tuple{Value(3)});
  db.Set("c", std::move(c));
  return db;
}

void ExpectSameRelation(const Relation& want, const Relation& got) {
  EXPECT_EQ(want.schema(), got.schema());
  EXPECT_EQ(want.tuples(), got.tuples());
}

// A 12-node graph with three weighted out-edges per node, and every other
// node marked: big enough that random joins reach thousands of row pairs
// and repair-key groups hold several members.
Instance LargeInstance() {
  Instance db;
  Relation e(Schema({"i", "j", "p"}));
  Relation c(Schema({"i"}));
  for (int64_t i = 0; i < 12; ++i) {
    for (int64_t step : {1, 3, 7}) {
      e.Insert(Tuple{Value(i), Value((i + step) % 12), Value(i % 3 + step)});
    }
    if (i % 2 == 0) c.Insert(Tuple{Value(i)});
  }
  db.Set("e", std::move(e));
  db.Set("c", std::move(c));
  return db;
}

// ---- Differential: plan against the tree walker ------------------------

// Compiles 8 random expressions from `seed` and checks each against the
// reference: the same schema or the same rejection, the same worlds from
// equal seeds with the same draw count, and, when `exact`, the same
// distribution in exact rationals.
void ExpectPlansMatchReference(const Instance& db, uint64_t seed,
                               bool exact) {
  const auto schemas = db.Schemas();
  RandomExprGen gen(seed);
  size_t compiled = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const RaExpr::Ptr expr = gen.Gen(4);
    SCOPED_TRACE(expr->ToString());
    auto plan = RaPlan::Compile(expr, schemas);
    auto want_schema = reference::InferSchema(expr, schemas);
    if (!plan.ok()) {
      // The compiler rejects exactly what the by-name rules reject.
      ASSERT_FALSE(want_schema.ok());
      EXPECT_EQ(plan.status().code(), want_schema.status().code());
      EXPECT_EQ(plan.status().message(), want_schema.status().message());
      continue;
    }
    ASSERT_TRUE(want_schema.ok()) << want_schema.status();
    EXPECT_EQ(plan->schema(), *want_schema);
    ++compiled;

    if (exact) {
      // Exact: outcome for outcome, in exact rationals.
      auto want = reference::EvalExact(expr, db);
      auto got = plan->Exact(db);
      ASSERT_EQ(got.ok(), want.ok())
          << got.status() << " vs " << want.status();
      if (want.ok()) {
        ASSERT_EQ(got->size(), want->size());
        for (size_t i = 0; i < want->size(); ++i) {
          ExpectSameRelation(want->outcomes()[i].value,
                             got->outcomes()[i].value);
          EXPECT_EQ(want->outcomes()[i].probability,
                    got->outcomes()[i].probability);
        }
      }
    }

    // Sample: the same worlds from equal seeds, and the same draw count.
    Rng want_rng(seed * 1000 + trial);
    Rng got_rng(seed * 1000 + trial);
    for (int draw = 0; draw < 6; ++draw) {
      auto want_world = reference::EvalSample(expr, db, &want_rng);
      auto got_world = plan->Sample(db, &got_rng);
      ASSERT_EQ(got_world.ok(), want_world.ok());
      if (want_world.ok()) ExpectSameRelation(*want_world, *got_world);
    }
    EXPECT_EQ(want_rng.Next(), got_rng.Next());
  }
  // Not every draw type-checks, but most do.
  EXPECT_GT(compiled, 0u);
}

class PlanDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanDifferentialTest, PlansMatchTheReferenceEvaluator) {
  ExpectPlansMatchReference(TestInstance(), GetParam(), /*exact=*/true);
}

// Sampling only: a repair-key over every node's out-edges has 3^12 worlds
// here, too many to enumerate in a unit test.
TEST_P(PlanDifferentialTest, SamplesMatchTheReferenceOnALargeInstance) {
  ExpectPlansMatchReference(LargeInstance(), GetParam(), /*exact=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{51}));

TEST(PlanTest, ProjectionOverExtendChainMatchesReference) {
  // The translator's head assembly: project[a1, a0](extend[a1 := j](
  // extend[a0 := 7](e))).
  auto expr = RaExpr::Project(
      RaExpr::Extend(RaExpr::Extend(RaExpr::Base("e"), "a0",
                                    ScalarExpr::Const(Value(7))),
                     "a1", ScalarExpr::Column("j")),
      {"a1", "a0"});
  const Instance db = TestInstance();
  auto plan = RaPlan::Compile(expr, db.Schemas());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->schema(), Schema({"a1", "a0"}));
  auto got = plan->Sample(db, nullptr);
  auto want = reference::EvalSample(expr, db, nullptr);
  ASSERT_TRUE(got.ok() && want.ok());
  ExpectSameRelation(*want, *got);
  EXPECT_EQ(got->size(), 3u);  // j in {1, 2, 3}
}

TEST(PlanTest, ScanChecksTheRuntimeSchema) {
  auto plan = RaPlan::Compile(RaExpr::Base("c"), {{"c", Schema({"i"})}});
  ASSERT_TRUE(plan.ok());
  Instance renamed;
  renamed.Set("c", Relation(Schema({"x"})));
  auto mismatch = plan->Sample(renamed, nullptr);
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatch.status().message().find("(x)"), std::string::npos);
  EXPECT_EQ(plan->Sample(Instance{}, nullptr).status().code(),
            StatusCode::kNotFound);
}

// ---- Compiled kernels --------------------------------------------------

TEST(CompiledKernelTest, RejectsAKernelThatRenamesARelation) {
  Instance initial;
  Relation cur(Schema({"i"}));
  cur.Insert(Tuple{Value(1)});
  initial.Set("cur", std::move(cur));
  Interpretation q;
  q.Define("cur", RaExpr::Rename(RaExpr::Base("cur"), {{"i", "j"}}));
  auto kernel = q.Compile(initial);
  ASSERT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = kernel.status().message();
  EXPECT_NE(message.find("'cur'"), std::string::npos) << message;
  EXPECT_NE(message.find("(j)"), std::string::npos) << message;
  EXPECT_NE(message.find("(i)"), std::string::npos) << message;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void ExpectCompiles(const Interpretation& kernel, const Instance& initial) {
  auto compiled = kernel.Compile(initial);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
}

TEST(CompiledKernelTest, EveryKernelTheRepositoryBuildsCompiles) {
  const std::string repo = PFQL_REPO_DIR;
  const std::vector<std::pair<std::string, std::string>> programs = {
      {"/examples/programs/coloring.dl", ""},
      {"/examples/programs/random_walk.dl", ""},
      {"/examples/programs/reachability.dl", ""},
      {"/examples/programs/weighted_choice.dl", ""},
      {"/tests/data/reach.dl", "/tests/data/graph.db"},
      {"/tests/data/coin.dl", "/tests/data/coin.db"},
      {"/tests/data/walk.dl", "/tests/data/ring8.db"},
      {"/tests/data/walk.dl", "/tests/data/ring12.db"},
  };
  for (const auto& [program_path, data_path] : programs) {
    SCOPED_TRACE(program_path + " " + data_path);
    auto program = datalog::ParseProgram(ReadFile(repo + program_path));
    ASSERT_TRUE(program.ok()) << program.status();
    Instance edb;
    if (!data_path.empty()) {
      auto parsed = ParseInstanceText(ReadFile(repo + data_path));
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      edb = std::move(parsed).value();
    }
    auto tq = datalog::TranslateNonInflationary(*program, edb);
    ASSERT_TRUE(tq.ok()) << tq.status();
    ExpectCompiles(tq->kernel, tq->initial);
  }

  // The pc-table macro, alone and under a translated program.
  PCDatabase pc;
  ASSERT_TRUE(pc.AddBooleanVariable("x", BigRational(1, 3)).ok());
  CTable table;
  table.schema = Schema({"lit"});
  table.rows.push_back(
      {Tuple{Value("pos")}, Condition::Eq("x", Value(int64_t{1}))});
  table.rows.push_back(
      {Tuple{Value("neg")}, Condition::Eq("x", Value(int64_t{0}))});
  ASSERT_TRUE(pc.AddTable("a", std::move(table)).ok());
  auto macro = ExpandPCDatabase(pc);
  ASSERT_TRUE(macro.ok()) << macro.status();
  ExpectCompiles(macro->kernel, macro->base_relations);
  auto reads = datalog::ParseProgram("seen(L) :- a(L).");
  ASSERT_TRUE(reads.ok()) << reads.status();
  auto with_pc =
      datalog::TranslateNonInflationaryWithPC(*reads, pc, Instance{});
  ASSERT_TRUE(with_pc.ok()) << with_pc.status();
  ExpectCompiles(with_pc->kernel, with_pc->initial);

  // The graph gadgets.
  for (const gadgets::Graph& graph :
       {gadgets::Cycle(5), gadgets::Complete(4)}) {
    auto walk = gadgets::RandomWalkQuery(graph, 0);
    ASSERT_TRUE(walk.ok()) << walk.status();
    ExpectCompiles(walk->kernel, walk->initial);
    auto pagerank = gadgets::PageRankQuery(graph, 0, 0.15);
    ASSERT_TRUE(pagerank.ok()) << pagerank.status();
    ExpectCompiles(pagerank->kernel, pagerank->initial);
  }
  auto glauber = gadgets::IndependentSetGlauber(gadgets::Cycle(5));
  ASSERT_TRUE(glauber.ok()) << glauber.status();
  ExpectCompiles(glauber->kernel, glauber->initial);
}

}  // namespace
}  // namespace pfql
