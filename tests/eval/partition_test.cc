#include "eval/partition.h"

#include <fstream>
#include <map>
#include <sstream>

#include "datalog/query_parse.h"
#include "datalog/translate.h"
#include "relational/text_io.h"
#include "util/random.h"

#include <gtest/gtest.h>

namespace pfql {
namespace eval {
namespace {

// Program whose derivations stay within connected components of e.
datalog::Program FlipPerComponent() {
  auto program = datalog::ParseProgram("flip(<K>, V) :- opts(K, V).");
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

TEST(ComputePartitionTest, IndependentKeysSplit) {
  // The alternatives of each repair-key group compete (same class), but
  // distinct key groups are independent: exactly two classes of size 2.
  Instance edb;
  Relation opts(Schema({"k", "v"}));
  opts.Insert(Tuple{Value("a"), Value(1)});
  opts.Insert(Tuple{Value("a"), Value(2)});
  opts.Insert(Tuple{Value("b"), Value(1)});
  opts.Insert(Tuple{Value("b"), Value(2)});
  edb.Set("opts", std::move(opts));
  auto partition = ComputePartition(FlipPerComponent(), edb,
                                    {"flip", Tuple{Value("b"), Value(1)}});
  ASSERT_TRUE(partition.ok()) << partition.status();
  ASSERT_EQ(partition->classes.size(), 2u);
  EXPECT_EQ(partition->class_sizes[0], 2u);
  EXPECT_EQ(partition->class_sizes[1], 2u);
  EXPECT_EQ(partition->event_class, 1u);
}

TEST(ComputePartitionTest, JoinedTuplesMerge) {
  // t(X, Z) :- e(X, Y), e(Y, Z): tuples sharing a middle node merge.
  auto program = datalog::ParseProgram("t(X, Z) :- e(X, Y), e(Y, Z).");
  ASSERT_TRUE(program.ok());
  Instance edb;
  Relation e(Schema({"i", "j"}));
  e.Insert(Tuple{Value(1), Value(2)});
  e.Insert(Tuple{Value(2), Value(3)});   // joins with the first
  e.Insert(Tuple{Value(10), Value(11)}); // isolated
  edb.Set("e", std::move(e));
  auto partition =
      ComputePartition(*program, edb, {"t", Tuple{Value(1), Value(3)}});
  ASSERT_TRUE(partition.ok());
  ASSERT_EQ(partition->classes.size(), 2u);
  // One class has the two joined tuples, the other the isolated one.
  std::vector<size_t> sizes = partition->class_sizes;
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 2}));
  ASSERT_TRUE(partition->event_class.has_value());
  EXPECT_EQ(partition->class_sizes[*partition->event_class], 2u);
}

TEST(ComputePartitionTest, TransitiveChainMergesAll) {
  auto program = datalog::ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  ASSERT_TRUE(program.ok());
  Instance edb;
  Relation e(Schema({"i", "j"}));
  e.Insert(Tuple{Value(1), Value(2)});
  e.Insert(Tuple{Value(2), Value(3)});
  e.Insert(Tuple{Value(3), Value(4)});
  edb.Set("e", std::move(e));
  auto partition =
      ComputePartition(*program, edb, {"t", Tuple{Value(1), Value(4)}});
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->classes.size(), 1u);
  EXPECT_EQ(partition->class_sizes[0], 3u);
  EXPECT_EQ(partition->event_class, 0u);
}

TEST(ComputePartitionTest, EveryClassKeepsAllRelations) {
  auto program = datalog::ParseProgram("t(X) :- a(X).\nu(X) :- b(X).");
  ASSERT_TRUE(program.ok());
  Instance edb;
  Relation a(Schema({"x"})), b(Schema({"x"}));
  a.Insert(Tuple{Value(1)});
  b.Insert(Tuple{Value(2)});
  edb.Set("a", std::move(a));
  edb.Set("b", std::move(b));
  auto partition = ComputePartition(*program, edb, {"u", Tuple{Value(2)}});
  ASSERT_TRUE(partition.ok());
  for (const auto& cls : partition->classes) {
    EXPECT_TRUE(cls.Has("a"));
    EXPECT_TRUE(cls.Has("b"));
  }
  EXPECT_EQ(partition->event_class, 1u);
}

// The chain 1 -> 2 -> 3 and the isolated edge 9 -> 10.
Instance ChainEdb() {
  Instance edb;
  Relation e(Schema({"i", "j"}));
  e.Insert(Tuple{Value(1), Value(2)});
  e.Insert(Tuple{Value(2), Value(3)});
  e.Insert(Tuple{Value(9), Value(10)});
  edb.Set("e", std::move(e));
  return edb;
}

StatusOr<Partition> Split(const std::string& source, const Instance& edb,
                          const std::string& event_text) {
  PFQL_ASSIGN_OR_RETURN(datalog::Program program,
                        datalog::ParseProgram(source));
  PFQL_ASSIGN_OR_RETURN(QueryEvent event, datalog::ParseGroundAtom(event_text));
  return ComputePartition(program, edb, event);
}

std::vector<size_t> ClassSizes(const std::string& source,
                               const Instance& edb) {
  auto partition = Split(source, edb, "t(0, 0)");
  EXPECT_TRUE(partition.ok()) << partition.status();
  return partition.ok() ? partition->class_sizes : std::vector<size_t>{};
}

// The class holding the event's tuple, -1 for none.
int EventClass(const std::string& source, const Instance& edb,
               const std::string& event) {
  auto partition = Split(source, edb, event);
  EXPECT_TRUE(partition.ok()) << partition.status();
  if (!partition.ok() || !partition->event_class) return -1;
  return static_cast<int>(*partition->event_class);
}

TEST(ComputePartitionTest, UnjoinedTuplesAreSingletonClasses) {
  EXPECT_EQ(ClassSizes("t(X, Y) :- e(X, Y).", ChainEdb()),
            (std::vector<size_t>{1, 1, 1}));
}

// Classes come in the order of their first EDB tuple.
TEST(ComputePartitionTest, DerivedFactJoinsItsSources) {
  EXPECT_EQ(ClassSizes("t(X, Y) :- e(X, Y).\n"
                       "t(X, Z) :- t(X, Y), e(Y, Z).",
                       ChainEdb()),
            (std::vector<size_t>{2, 1}));
}

TEST(ComputePartitionTest, ChoiceGroupJoinsCompetitors) {
  Instance edb;
  Relation opts(Schema({"k", "v"}));
  opts.Insert(Tuple{Value(1), Value("a")});
  opts.Insert(Tuple{Value(1), Value("b")});
  opts.Insert(Tuple{Value(2), Value("c")});
  edb.Set("opts", std::move(opts));
  EXPECT_EQ(ClassSizes("pick(<K>, V) :- opts(K, V).", edb),
            (std::vector<size_t>{2, 1}));
}

TEST(ComputePartitionTest, BuiltinsRestrictDerivations) {
  const char* joined = "t(X, Z) :- e(X, Y), e(Y, Z).";
  EXPECT_EQ(ClassSizes(joined, ChainEdb()), (std::vector<size_t>{2, 1}));
  const char* filtered = "t(X, Z) :- e(X, Y), e(Y, Z), X != 1.";
  EXPECT_EQ(ClassSizes(filtered, ChainEdb()),
            (std::vector<size_t>{1, 1, 1}));
}

// A fact holds in every class; splitting would count it once per class.
TEST(ComputePartitionTest, BodyLessRuleMakesOneClass) {
  EXPECT_EQ(ClassSizes("start(go).\nt(X, Y) :- e(X, Y).", ChainEdb()),
            (std::vector<size_t>{3}));
  EXPECT_EQ(ClassSizes("start(go).\nt(X) :- start(X).", Instance()),
            (std::vector<size_t>{0}));
}

// The event's class is the one whose fixpoint holds its tuple, derived or
// base; a tuple outside the fixpoint has none.
TEST(ComputePartitionTest, ReportsTheClassThatHoldsTheEvent) {
  const char* transitive =
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Z) :- t(X, Y), e(Y, Z).";
  EXPECT_EQ(EventClass(transitive, ChainEdb(), "t(1, 3)"), 0);
  EXPECT_EQ(EventClass(transitive, ChainEdb(), "t(9, 10)"), 1);
  EXPECT_EQ(EventClass(transitive, ChainEdb(), "e(9, 10)"), 1);
  EXPECT_EQ(EventClass(transitive, ChainEdb(), "t(1, 10)"), -1);
  EXPECT_EQ(EventClass(transitive, ChainEdb(), "e(3, 1)"), -1);
  // With no EDB tuple, the one class holds every fact.
  EXPECT_EQ(EventClass("start(go).\nt(X) :- start(X).", Instance(), "t(go)"),
            0);
}

TEST(ComputePartitionTest, HonoursACancelledToken) {
  auto program = datalog::ParseProgram("t(X, Y) :- e(X, Y).");
  ASSERT_TRUE(program.ok()) << program.status();
  CancellationToken token;
  token.Cancel();
  auto partition = ComputePartition(*program, ChainEdb(),
                                    {"t", Tuple{Value(1), Value(2)}}, &token);
  ASSERT_FALSE(partition.ok());
  EXPECT_EQ(partition.status().code(), StatusCode::kCancelled);
}

TEST(PartitionedExactForeverTest, MatchesMonolithicEvaluation) {
  // Two independent coins, event on one of them: partitioned result must
  // equal the monolithic exact result (1/2), with smaller chains.
  Instance edb;
  Relation opts(Schema({"k", "v"}));
  opts.Insert(Tuple{Value("a"), Value(1)});
  opts.Insert(Tuple{Value("a"), Value(2)});
  opts.Insert(Tuple{Value("b"), Value(1)});
  opts.Insert(Tuple{Value("b"), Value(2)});
  edb.Set("opts", std::move(opts));
  QueryEvent event{"flip", Tuple{Value("a"), Value(1)}};

  auto tq = datalog::TranslateNonInflationary(FlipPerComponent(), edb);
  ASSERT_TRUE(tq.ok());
  auto mono = ExactForever({tq->kernel, event}, tq->initial);
  ASSERT_TRUE(mono.ok());

  auto parted = PartitionedExactForever(FlipPerComponent(), edb, event);
  ASSERT_TRUE(parted.ok()) << parted.status();
  EXPECT_EQ(parted->probability, mono->probability);
  EXPECT_EQ(parted->probability, BigRational(1, 2));

  // The monolithic chain has a state for each (flip_a, flip_b) combination
  // plus the start; the event's class chain has one per flip of a.
  EXPECT_EQ(mono->num_states, 5u);
  EXPECT_EQ(parted->num_classes, 2u);
  EXPECT_EQ(parted->num_states, 3u);
}

TEST(PartitionedExactForeverTest, EventInNoClassGivesZero) {
  Instance edb;
  Relation opts(Schema({"k", "v"}));
  opts.Insert(Tuple{Value("a"), Value(1)});
  edb.Set("opts", std::move(opts));
  QueryEvent event{"flip", Tuple{Value("zzz"), Value(9)}};
  auto parted = PartitionedExactForever(FlipPerComponent(), edb, event);
  ASSERT_TRUE(parted.ok());
  EXPECT_TRUE(parted->probability.IsZero());
  // No chain is built.
  EXPECT_EQ(parted->num_classes, 1u);
  EXPECT_EQ(parted->num_states, 0u);
  EXPECT_EQ(parted->num_components, 0u);
  EXPECT_EQ(parted->num_bottom, 0u);
  EXPECT_FALSE(parted->irreducible);
  EXPECT_FALSE(parted->aperiodic);
}

// ---- Partitioned answers against the monolithic chain -------------------

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(PFQL_REPO_DIR) + "/examples/programs/" + name);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_FALSE(text.str().empty()) << name;
  return text.str();
}

Instance Edb(const std::string& text) {
  auto edb = ParseInstanceText(text);
  EXPECT_TRUE(edb.ok()) << edb.status();
  return edb.ok() ? std::move(edb).value() : Instance();
}

// PartitionedExactForever on `source` and `data`, after checking that it
// equals ExactForever on the whole chain, that it counts ComputePartition's
// classes, and that its chain is the whole chain on a one-class input and
// no larger on a split one.
StatusOr<PartitionedResult> Partitioned(const std::string& source,
                                        const std::string& data,
                                        const std::string& event_text) {
  PFQL_ASSIGN_OR_RETURN(datalog::Program program,
                        datalog::ParseProgram(source));
  const Instance edb = Edb(data);
  PFQL_ASSIGN_OR_RETURN(QueryEvent event, datalog::ParseGroundAtom(event_text));
  PFQL_ASSIGN_OR_RETURN(datalog::TranslatedQuery tq,
                        datalog::TranslateNonInflationary(program, edb));
  PFQL_ASSIGN_OR_RETURN(ExactForeverResult whole,
                        ExactForever({tq.kernel, event}, tq.initial));
  PFQL_ASSIGN_OR_RETURN(PartitionedResult parted,
                        PartitionedExactForever(program, edb, event));
  PFQL_ASSIGN_OR_RETURN(Partition partition,
                        ComputePartition(program, edb, event));
  const std::string context = event_text + " for\n" + source + "over\n" + data;
  EXPECT_EQ(parted.probability, whole.probability)
      << "partition differs from forever on " << context;
  EXPECT_EQ(parted.num_classes, partition.classes.size()) << context;
  if (parted.num_classes == 1 && parted.num_states > 0) {
    EXPECT_EQ(parted.num_states, whole.num_states) << context;
    EXPECT_EQ(parted.num_components, whole.num_components) << context;
    EXPECT_EQ(parted.num_bottom, whole.num_bottom) << context;
    EXPECT_EQ(parted.irreducible, whole.irreducible) << context;
    EXPECT_EQ(parted.aperiodic, whole.aperiodic) << context;
  }
  EXPECT_LE(parted.num_states, whole.num_states) << context;
  return parted;
}

std::string PartitionedProbability(const std::string& source,
                                   const std::string& data,
                                   const std::string& event) {
  auto r = Partitioned(source, data, event);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->probability.ToString() : "";
}

TEST(PartitionedExactForeverTest, BuiltinComparesIntWithDoubleNumerically) {
  EXPECT_EQ(PartitionedProbability(
                "h(X) :- a(X), b(Y), Y > 1.5.",
                "relation a(x) {\n  (1)\n}\nrelation b(y) {\n  (2)\n}\n",
                "h(1)"),
            "1");
}

TEST(PartitionedExactForeverTest, RepeatedVariableMatchesNumerically) {
  EXPECT_EQ(PartitionedProbability("h(X) :- a(X, X), c(X).",
                                   "relation a(x, y) {\n  (1, 1.0)\n"
                                   "  (2, 2)\n}\n"
                                   "relation c(x) {\n  (1)\n  (2)\n}\n",
                                   "h(1)"),
            "1");
}

// The shipped examples state their input as facts: one class each.
TEST(PartitionedExactForeverTest, ExampleProgramsWithoutInput) {
  EXPECT_EQ(PartitionedProbability(ReadExample("weighted_choice.dl"), "",
                                   "flip(coin, heads)"),
            "3/4");
  EXPECT_EQ(PartitionedProbability(ReadExample("coloring.dl"), "",
                                   "pick(1, red)"),
            "1/3");
  EXPECT_EQ(
      PartitionedProbability(ReadExample("random_walk.dl"), "", "cur(3)"),
      "1");
  EXPECT_EQ(
      PartitionedProbability(ReadExample("reachability.dl"), "", "cur(3)"),
      "1");
}

// Splitting `other` into two classes would count the fact-only coin in
// each: 1 - (1 - 3/4)^2 = 15/16.
TEST(PartitionedExactForeverTest, FactsAreCountedOnce) {
  auto r = Partitioned(ReadExample("weighted_choice.dl") +
                           "seen(X) :- other(X).\n",
                       "relation other(x) {\n  (1)\n  (2)\n}\n",
                       "flip(coin, heads)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->probability.ToString(), "3/4");
  EXPECT_EQ(r->num_classes, 1u);
}

// ---- Seeded corpus -----------------------------------------------------

std::string RelationText(const std::string& header,
                         const std::vector<std::vector<int>>& rows) {
  std::string out = "relation " + header + " {\n";
  for (const auto& row : rows) {
    out += "  (";
    for (size_t i = 0; i < row.size(); ++i) {
      out += (i == 0 ? "" : ", ") + std::to_string(row[i]);
    }
    out += ")\n";
  }
  return out + "}\n";
}

struct CorpusCase {
  std::string label;
  std::string program;
  std::string data;
  std::string event;
};

// 6 program shapes x 12 seeds over small random inputs with at least one
// EDB tuple and no fact, so every class comes from the EDB. Each event is
// a head fact some valuation derives.
std::vector<CorpusCase> SeededCorpus() {
  struct Shape {
    const char* label;
    const char* program;
    std::vector<std::string> relations;  // the EDB relations it reads
  };
  const Shape shapes[] = {
      {"unweighted", "flip(<K>, V) :- opts(K, V).", {"opts"}},
      {"weighted", "flip(<K>, V) @W :- wopts(K, V, W).", {"wopts"}},
      {"join", "hop(<X>, Z) :- e(X, Y), e(Y, Z).", {"e"}},
      {"chain",
       "flip(<K>, V) :- opts(K, V).\nnext(<V>, W) :- flip(K, V), e(V, W).",
       {"opts", "e"}},
      {"builtin", "flip(<K>, V) :- opts(K, V), V > 0.", {"opts"}},
      {"conjunction", "both(<K>, V) :- opts(K, V), mark(V).",
       {"opts", "mark"}},
  };
  std::vector<CorpusCase> corpus;
  for (const Shape& shape : shapes) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      Rng rng(seed * 7919 + corpus.size());
      std::vector<std::vector<int>> opts, wopts, e, mark;
      for (int k = 0; k < 3; ++k) {
        for (int v = 0; v < 3; ++v) {
          if (!rng.NextBernoulli(0.5)) continue;
          opts.push_back({k, v});
          wopts.push_back({k, v, 1 + static_cast<int>(rng.NextIndex(3))});
        }
      }
      if (opts.empty()) {
        opts.push_back({0, 1});
        wopts.push_back({0, 1, 2});
      }
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
          if (rng.NextBernoulli(0.4)) e.push_back({i, j});
        }
      }
      if (e.empty()) e.push_back({1, 2});
      for (int v = 0; v < 3; ++v) {
        if (rng.NextBernoulli(0.5)) mark.push_back({v});
      }
      const std::map<std::string, std::string> texts = {
          {"opts", RelationText("opts(k, v)", opts)},
          {"wopts", RelationText("wopts(k, v, w)", wopts)},
          {"e", RelationText("e(i, j)", e)},
          {"mark", RelationText("mark(v)", mark)}};
      std::string data;
      for (const std::string& name : shape.relations) data += texts.at(name);

      const std::string label = shape.label;
      std::string head = "flip";
      std::vector<std::vector<int>> derived;
      if (label == "unweighted" || label == "weighted") derived = opts;
      for (const auto& o : opts) {
        if (label == "builtin" && o[1] > 0) derived.push_back(o);
        for (const auto& m : mark) {
          if (label == "conjunction" && o[1] == m[0]) derived.push_back(o);
        }
        for (const auto& edge : e) {
          if (label == "chain" && o[1] == edge[0]) derived.push_back(edge);
        }
      }
      for (const auto& first : e) {
        for (const auto& second : e) {
          if (label == "join" && first[1] == second[0]) {
            derived.push_back({first[0], second[1]});
          }
        }
      }
      if (label == "chain") head = "next";
      if (label == "join") head = "hop";
      if (label == "conjunction") head = "both";
      if (derived.empty()) derived = opts;  // an event that never holds
      const std::vector<int>& pair = derived[rng.NextIndex(derived.size())];
      corpus.push_back({label + "-" + std::to_string(seed), shape.program,
                        data,
                        head + "(" + std::to_string(pair[0]) + ", " +
                            std::to_string(pair[1]) + ")"});
    }
  }
  return corpus;
}

TEST(PartitionedExactForeverTest, SeededCorpusMatchesForever) {
  const std::vector<CorpusCase> corpus = SeededCorpus();
  ASSERT_EQ(corpus.size(), 72u);
  size_t split = 0;
  for (const CorpusCase& c : corpus) {
    SCOPED_TRACE(c.label);
    auto r = Partitioned(c.program, c.data, c.event);
    ASSERT_TRUE(r.ok()) << r.status();
    if (r->num_classes > 1) ++split;
  }
  // The corpus exercises the split, not only the one-class case.
  EXPECT_GT(split, corpus.size() / 2);
}

}  // namespace
}  // namespace eval
}  // namespace pfql
