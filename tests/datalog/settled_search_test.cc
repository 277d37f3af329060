// The exact search settles at the event: a node whose instance holds it adds
// its probability without being entered. ExactFixpointDistribution still
// walks the whole computation tree and is the oracle here. Over a seeded
// corpus, the settled probability of every event must equal, exactly, the
// mass of the whole tree's fixpoints where the event holds. The search must
// visit no more nodes than the tree has, exactly as many when the event
// holds at no fixpoint, and one node when no rule writes its relation.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datalog/engine.h"
#include "datalog/program.h"

namespace pfql {
namespace datalog {
namespace {

Program Parse(const char* text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// Example 3.9's reachability: one weighted out-edge fires per reached node.
constexpr char kReach[] =
    "cur(0).\n"
    "c2(<X>, Y) @P :- cur(X), e(X, Y, P).\n"
    "cur(Y) :- c2(X, Y).\n";

Instance Edges(std::vector<Tuple> edges) {
  Instance edb;
  edb.Set("e", Relation::Make(Schema({"i", "j", "p"}), std::move(edges))
                   .value());
  return edb;
}

QueryEvent Fact(const char* relation, Tuple tuple) {
  return QueryEvent{relation, std::move(tuple)};
}

// How often each kind of event came up, so a corpus that stopped covering
// one fails instead of passing vacuously.
struct Tally {
  size_t settled = 0;     // the search skipped part of the tree
  size_t never = 0;       // on a written relation, at no fixpoint
  size_t unwritten = 0;   // on a relation no rule writes
  size_t input_fact = 0;  // unwritten and true at the root
};

void ExpectSettledMatchesWholeTree(const Program& program, const Instance& edb,
                                   const std::vector<QueryEvent>& events,
                                   Tally* tally) {
  size_t tree_nodes = 0;
  auto dist = ExactFixpointDistribution(program, edb, {}, &tree_nodes);
  ASSERT_TRUE(dist.ok()) << dist.status();
  for (const QueryEvent& event : events) {
    SCOPED_TRACE(event.ToString());
    BigRational expected;
    for (const auto& outcome : dist->outcomes()) {
      if (event.Holds(outcome.value)) expected += outcome.probability;
    }
    size_t nodes = 0;
    auto p = ExactFixpointEventProbability(program, edb, event, {}, &nodes);
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(p->ToString(), expected.ToString());
    EXPECT_LE(nodes, tree_nodes);
    if (program.idb_predicates().count(event.relation) == 0) {
      EXPECT_EQ(nodes, 1u);  // decided at the root
      ++tally->unwritten;
      if (!expected.IsZero()) ++tally->input_fact;
    } else if (expected.IsZero()) {
      EXPECT_EQ(nodes, tree_nodes);  // nothing settles
      ++tally->never;
    } else if (nodes < tree_nodes) {
      ++tally->settled;
    }
  }
}

void ExpectCovered(const Tally& tally) {
  EXPECT_GT(tally.settled, 0u);
  EXPECT_GT(tally.never, 0u);
  EXPECT_GT(tally.unwritten, tally.input_fact);
  EXPECT_GT(tally.input_fact, 0u);
}

TEST(SettledSearchTest, ReachOnRandomWeightedDigraphs) {
  const Program reach = Parse(kReach);
  Tally tally;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int64_t n = 3 + static_cast<int64_t>(seed % 4);
    std::vector<Tuple> edges;
    for (int64_t i = 0; i < n; ++i) {
      std::vector<std::pair<int64_t, int64_t>> out;  // (j, weight)
      int64_t total = 0;
      for (int64_t j = 0; j < n; ++j) {
        if (!rng.NextBernoulli(0.45)) continue;
        // Weight 0 drops the edge out of its group.
        out.emplace_back(j, static_cast<int64_t>(rng.NextIndex(4)));
        total += out.back().second;
      }
      if (!out.empty() && total == 0) out.back().second = 1;
      for (const auto& [j, weight] : out) {
        edges.push_back(Tuple{Value(i), Value(j), Value(weight)});
      }
    }
    if (edges.empty()) edges.push_back(Tuple{Value(0), Value(1), Value(1)});
    const Tuple first_edge = edges.front();
    std::vector<QueryEvent> events;
    for (int64_t v = 0; v <= n; ++v) {  // node n does not exist
      events.push_back(Fact("cur", Tuple{Value(v)}));
    }
    events.push_back(Fact("c2", Tuple{Value(0), Value(n - 1)}));
    events.push_back(Fact("e", first_edge));
    events.push_back(Fact("e", Tuple{Value(n), Value(n), Value(1)}));
    ExpectSettledMatchesWholeTree(reach, Edges(std::move(edges)), events,
                                  &tally);
  }
  ExpectCovered(tally);
}

// bench_datalog_engine's chain of k diamonds 3d -> {3d+1, 3d+2} -> 3(d+1),
// with uniform choices and a self-loop at the end.
TEST(SettledSearchTest, Diamonds) {
  const Program reach = Parse(
      "cur(0).\n"
      "c2(<X>, Y) :- cur(X), e(X, Y, P).\n"
      "cur(Y) :- c2(X, Y).\n");
  Tally tally;
  for (int64_t k = 1; k <= 4; ++k) {
    SCOPED_TRACE("diamonds " + std::to_string(k));
    std::vector<Tuple> edges;
    for (int64_t d = 0; d < k; ++d) {
      edges.push_back(Tuple{Value(3 * d), Value(3 * d + 1), Value(1)});
      edges.push_back(Tuple{Value(3 * d), Value(3 * d + 2), Value(1)});
      edges.push_back(Tuple{Value(3 * d + 1), Value(3 * (d + 1)), Value(1)});
      edges.push_back(Tuple{Value(3 * d + 2), Value(3 * (d + 1)), Value(1)});
    }
    edges.push_back(Tuple{Value(3 * k), Value(3 * k), Value(1)});
    ExpectSettledMatchesWholeTree(
        reach, Edges(std::move(edges)),
        {Fact("cur", Tuple{Value(3 * k)}), Fact("cur", Tuple{Value(1)}),
         Fact("cur", Tuple{Value(3 * k - 1)}),
         Fact("cur", Tuple{Value(3 * k + 1)}),
         Fact("e", Tuple{Value(0), Value(1), Value(1)}),
         Fact("e", Tuple{Value(1), Value(0), Value(1)})},
        &tally);
  }
  ExpectCovered(tally);
}

TEST(SettledSearchTest, WeightedChoicePrograms) {
  Tally tally;
  // examples/programs/weighted_choice.dl: the options are facts, so a rule
  // writes `opts` and it holds after the first step.
  ExpectSettledMatchesWholeTree(
      Parse("opts(coin, heads, 3).\n"
            "opts(coin, tails, 1).\n"
            "flip(<K>, V) @W :- opts(K, V, W).\n"),
      Instance{},
      {Fact("flip", Tuple{Value("coin"), Value("heads")}),
       Fact("flip", Tuple{Value("coin"), Value("tails")}),
       Fact("flip", Tuple{Value("coin"), Value("edge")}),
       Fact("opts", Tuple{Value("coin"), Value("heads"), Value(3)}),
       Fact("toss", Tuple{Value("coin")})},
      &tally);

  // A second choice that depends on the first, and a join of both.
  Instance two_stage;
  two_stage.Set("opts",
                Relation::Make(Schema({"k", "v", "w"}),
                               {Tuple{Value("c"), Value("a"), Value(1)},
                                Tuple{Value("c"), Value("b"), Value(2)}})
                    .value());
  two_stage.Set("next",
                Relation::Make(Schema({"v", "u", "w"}),
                               {Tuple{Value("a"), Value("x"), Value(1)},
                                Tuple{Value("a"), Value("y"), Value(1)},
                                Tuple{Value("b"), Value("x"), Value(3)},
                                Tuple{Value("b"), Value("z"), Value(1)}})
                    .value());
  ExpectSettledMatchesWholeTree(
      Parse("first(<K>, V) @W :- opts(K, V, W).\n"
            "second(<V>, U) @W :- first(K, V), next(V, U, W).\n"
            "both(V, U) :- first(K, V), second(V, U).\n"),
      two_stage,
      {Fact("first", Tuple{Value("c"), Value("a")}),
       Fact("second", Tuple{Value("a"), Value("x")}),
       Fact("second", Tuple{Value("b"), Value("x")}),
       Fact("both", Tuple{Value("b"), Value("z")}),
       Fact("second", Tuple{Value("a"), Value("z")}),
       Fact("next", Tuple{Value("a"), Value("x"), Value(1)}),
       Fact("next", Tuple{Value("a"), Value("z"), Value(1)})},
      &tally);

  // Independent uniform choices and a join across them.
  Instance colors;
  colors.Set("color", Relation::Make(Schema({"c"}), {Tuple{Value("red")},
                                                     Tuple{Value("green")}})
                          .value());
  ExpectSettledMatchesWholeTree(
      Parse("node(1).\nnode(2).\nnode(3).\n"
            "pick(<N>, C) :- node(N), color(C).\n"
            "clash(N, M) :- pick(N, C), pick(M, C), N < M.\n"),
      colors,
      {Fact("clash", Tuple{Value(1), Value(2)}),
       Fact("clash", Tuple{Value(2), Value(3)}),
       Fact("pick", Tuple{Value(2), Value("red")}),
       Fact("clash", Tuple{Value(2), Value(1)}),
       Fact("color", Tuple{Value("red")})},
      &tally);
  ExpectCovered(tally);
}

}  // namespace
}  // namespace datalog
}  // namespace pfql
