// The paper's Example 3.5: probabilistic reachability as an *inflationary
// fixpoint query* built directly in relational algebra, with the auxiliary
// Cold relation enforcing that only newly reached nodes fire a choice:
//
//   Cold := C
//   C    := C ∪ ρ_I π_J (repair-key_I@P ((C − Cold) ⋈ E))
//   E    := E                                     % unchanged
//
// Its long-run event probability must match the Example 3.9 probabilistic
// datalog program evaluated by the inflationary engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "eval/inflationary.h"
#include "eval/noninflationary.h"
#include "gadgets/graphs.h"

namespace pfql {
namespace {

// 0 -> {1 w.p. 1/4, 2 w.p. 3/4}; 1 -> 3; 2 -> 3; 3 absorbing.
gadgets::Graph Diamond() {
  gadgets::Graph g;
  g.num_nodes = 4;
  g.edges = {{0, 1, 1.0}, {0, 2, 3.0}, {1, 3, 1.0}, {2, 3, 1.0},
             {3, 3, 1.0}};
  return g;
}

// Builds the Example 3.5 kernel over relations cur(i), cold(i), e(i,j,p).
Interpretation Example35Kernel() {
  Interpretation q;
  q.Define("cold", RaExpr::Base("cur"));
  RepairKeySpec spec;
  spec.key_columns = {"i"};
  spec.weight_column = "p";
  RaExpr::Ptr frontier =
      RaExpr::Difference(RaExpr::Base("cur"), RaExpr::Base("cold"));
  RaExpr::Ptr step = RaExpr::Rename(
      RaExpr::Project(
          RaExpr::RepairKey(RaExpr::Join(std::move(frontier),
                                         RaExpr::Base("e")),
                            spec),
          {"j"}),
      {{"j", "i"}});
  q.Define("cur", RaExpr::Union(RaExpr::Base("cur"), std::move(step)));
  return q;
}

Instance Example35Initial(const gadgets::Graph& g, int64_t start) {
  Instance db;
  Relation cur(Schema({"i"}));
  cur.Insert(Tuple{Value(start)});
  db.Set("cur", std::move(cur));
  db.Set("cold", Relation(Schema({"i"})));
  db.Set("e", g.ToEdgeRelation());
  return db;
}

TEST(Example35Test, KernelIsInflationaryOnCur) {
  Interpretation q = Example35Kernel();
  Instance db = Example35Initial(Diamond(), 0);
  // cur only ever grows (cold is rewritten, so the full kernel is not
  // inflationary in the strict Def 3.4 sense — the paper treats cold as an
  // auxiliary relation).
  auto kernel = q.Compile(db);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  auto dist = (*kernel)->Exact(db);
  ASSERT_TRUE(dist.ok());
  const std::vector<Tuple>& before = db.Find("cur")->tuples();
  for (const auto& w : dist->outcomes()) {
    const std::vector<Tuple>& after = w.value.Find("cur")->tuples();
    EXPECT_TRUE(std::includes(after.begin(), after.end(), before.begin(),
                              before.end()));
  }
}

TEST(Example35Test, MatchesExample39Datalog) {
  gadgets::Graph g = Diamond();
  // RA-level Example 3.5, evaluated as a walk over database states.
  Interpretation q = Example35Kernel();
  Instance initial = Example35Initial(g, 0);
  for (int64_t target : {1, 2, 3}) {
    QueryEvent event{"cur", Tuple{Value(target)}};
    auto walk = eval::ExactForever({q, event}, initial);
    ASSERT_TRUE(walk.ok()) << walk.status();

    // Datalog-level Example 3.9 via the inflationary engine.
    auto gadget = gadgets::ReachabilityProgram(g, 0, target);
    ASSERT_TRUE(gadget.ok());
    auto engine_p = eval::ExactInflationary(gadget->program, gadget->edb,
                                            gadget->event);
    ASSERT_TRUE(engine_p.ok()) << engine_p.status();

    EXPECT_EQ(walk->probability, engine_p.value()) << "target " << target;
  }
}

TEST(Example35Test, ExactValuesOnDiamond) {
  Interpretation q = Example35Kernel();
  Instance initial = Example35Initial(Diamond(), 0);
  auto p1 = eval::ExactForever({q, {"cur", Tuple{Value(1)}}}, initial);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->probability, BigRational(1, 4));
  auto p3 = eval::ExactForever({q, {"cur", Tuple{Value(3)}}}, initial);
  ASSERT_TRUE(p3.ok());
  EXPECT_TRUE(p3->probability.IsOne());
}

TEST(Example35Test, WithoutColdProbabilityRisesToOne) {
  // The Example 3.6 subtlety at RA level: dropping the Cold restriction
  // lets the choice at node 0 re-fire forever, so Pr[1 ∈ cur] becomes 1.
  Interpretation q;
  RepairKeySpec spec;
  spec.key_columns = {"i"};
  spec.weight_column = "p";
  RaExpr::Ptr step = RaExpr::Rename(
      RaExpr::Project(
          RaExpr::RepairKey(RaExpr::Join(RaExpr::Base("cur"),
                                         RaExpr::Base("e")),
                            spec),
          {"j"}),
      {{"j", "i"}});
  q.Define("cur", RaExpr::Union(RaExpr::Base("cur"), std::move(step)));

  Instance db;
  Relation cur(Schema({"i"}));
  cur.Insert(Tuple{Value(0)});
  db.Set("cur", std::move(cur));
  db.Set("e", Diamond().ToEdgeRelation());

  auto p1 = eval::ExactForever({q, {"cur", Tuple{Value(1)}}}, db);
  ASSERT_TRUE(p1.ok());
  EXPECT_TRUE(p1->probability.IsOne());
}

}  // namespace
}  // namespace pfql
