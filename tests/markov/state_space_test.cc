#include "markov/state_space.h"

#include <gtest/gtest.h>

#include <string>

#include "datalog/program.h"
#include "datalog/translate.h"
#include "relational/text_io.h"

namespace pfql {
namespace {

// Random walk on 1 -> {2 w.p. 1/4, 3 w.p. 3/4}, 2 and 3 absorbing.
Instance WalkInstance() {
  Instance db;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value(1), Value(2), Value(1)});
  e.Insert(Tuple{Value(1), Value(3), Value(3)});
  e.Insert(Tuple{Value(2), Value(2), Value(1)});
  e.Insert(Tuple{Value(3), Value(3), Value(1)});
  db.Set("e", std::move(e));
  Relation c(Schema({"i"}));
  c.Insert(Tuple{Value(1)});
  db.Set("cur", std::move(c));
  return db;
}

Interpretation WalkKernel() {
  RepairKeySpec spec;
  spec.key_columns = {"i"};
  spec.weight_column = "p";
  Interpretation q;
  q.Define("cur",
           RaExpr::Rename(
               RaExpr::Project(
                   RaExpr::RepairKey(
                       RaExpr::Join(RaExpr::Base("cur"), RaExpr::Base("e")),
                       spec),
                   {"j"}),
               {{"j", "i"}}));
  return q;
}

TEST(StateSpaceTest, ExploresReachableInstances) {
  auto space = BuildStateSpace(WalkKernel(), WalkInstance());
  ASSERT_TRUE(space.ok());
  // States: cur = {1}, {2}, {3}.
  EXPECT_EQ(space->states.size(), 3u);
  EXPECT_EQ(space->chain.num_states(), 3u);
  EXPECT_EQ(space->chain.offsets().back(), space->chain.num_entries());
  // states[0] is the initial instance.
  EXPECT_EQ(space->states[0], WalkInstance());
}

TEST(StateSpaceTest, TransitionProbabilitiesExact) {
  auto space = BuildStateSpace(WalkKernel(), WalkInstance());
  ASSERT_TRUE(space.ok());
  const auto& row = space->chain.Row(0);
  ASSERT_EQ(row.size(), 2u);
  BigRational total;
  for (const auto& [_, p] : row) total += p;
  EXPECT_TRUE(total.IsOne());
}

TEST(StateSpaceTest, EventStatesIndicator) {
  auto space = BuildStateSpace(WalkKernel(), WalkInstance());
  ASSERT_TRUE(space.ok());
  QueryEvent at3{"cur", Tuple{Value(3)}};
  auto indicator = space->EventStates(at3);
  size_t hits = 0;
  for (bool b : indicator) {
    if (b) ++hits;
  }
  EXPECT_EQ(hits, 1u);
}

TEST(StateSpaceTest, LongRunProbabilityOfAbsorption) {
  auto space = BuildStateSpace(WalkKernel(), WalkInstance());
  ASSERT_TRUE(space.ok());
  QueryEvent at3{"cur", Tuple{Value(3)}};
  auto indicator = space->EventStates(at3);
  auto p = space->chain.ExactLongRunProbability(
      0, [&](size_t s) { return indicator[s]; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(3, 4));
}

TEST(StateSpaceTest, MaxStatesGuard) {
  StateSpaceOptions options;
  options.max_states = 2;
  auto space = BuildStateSpace(WalkKernel(), WalkInstance(), options);
  EXPECT_FALSE(space.ok());
  EXPECT_EQ(space.status().code(), StatusCode::kResourceExhausted);
  // The budget error reports enough to size a retry: interner pressure and
  // the widest BFS wave alongside the explored-state count.
  const std::string message = space.status().message();
  EXPECT_NE(message.find("explored"), std::string::npos) << message;
  EXPECT_NE(message.find("max_states"), std::string::npos) << message;
  EXPECT_NE(message.find("interner holds"), std::string::npos) << message;
  EXPECT_NE(message.find("peak wave width"), std::string::npos) << message;
}

TEST(StateSpaceTest, DeterministicKernelSingleSuccessor) {
  Interpretation q;
  q.Define("cur", RaExpr::Base("cur"));  // identity
  auto space = BuildStateSpace(q, WalkInstance());
  ASSERT_TRUE(space.ok());
  EXPECT_EQ(space->states.size(), 1u);
  ASSERT_EQ(space->chain.Row(0).size(), 1u);
  EXPECT_TRUE(space->chain.Row(0)[0].second.IsOne());
}

// A bigger walk: lazy random walk on a 6-cycle, one state per node, several
// BFS waves deep. Used by the determinism regressions below.
Instance CycleInstance(int64_t n) {
  Instance db;
  Relation e(Schema({"i", "j", "p"}));
  for (int64_t i = 0; i < n; ++i) {
    e.Insert(Tuple{Value(i), Value(i), Value(1)});
    e.Insert(Tuple{Value(i), Value((i + 1) % n), Value(2)});
  }
  db.Set("e", std::move(e));
  Relation c(Schema({"i"}));
  c.Insert(Tuple{Value(0)});
  db.Set("cur", std::move(c));
  return db;
}

void ExpectSameSpace(const StateSpace& a, const StateSpace& b) {
  ASSERT_EQ(a.states.size(), b.states.size());
  for (size_t i = 0; i < a.states.size(); ++i) {
    EXPECT_EQ(a.states[i], b.states[i]) << "state " << i << " differs";
  }
  ASSERT_EQ(a.chain.num_states(), b.chain.num_states());
  for (size_t i = 0; i < a.chain.num_states(); ++i) {
    const auto& ra = a.chain.Row(i);
    const auto& rb = b.chain.Row(i);
    ASSERT_EQ(ra.size(), rb.size()) << "row " << i << " differs";
    for (size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].first, rb[k].first);
      EXPECT_EQ(ra[k].second, rb[k].second);
    }
  }
}

// Regression: state numbering, edges, and probabilities are bit-identical
// for any thread count (the wave-parallel expansion merges in frontier
// order), and unchanged from the sequential std::map-based exploration this
// replaced (states are numbered in FIFO discovery order).
TEST(StateSpaceTest, ThreadedBuildBitIdenticalToSequential) {
  const Instance initial = CycleInstance(6);
  const Interpretation q = WalkKernel();
  StateSpaceOptions seq;
  seq.threads = 1;
  auto base = BuildStateSpace(q, initial, seq);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->states.size(), 6u);
  // Each explored instance is interned exactly once.
  for (size_t i = 0; i < base->states.size(); ++i) {
    for (size_t j = i + 1; j < base->states.size(); ++j) {
      EXPECT_FALSE(base->states[i] == base->states[j]) << i << ", " << j;
    }
  }
  for (size_t threads : {2u, 4u, 8u}) {
    StateSpaceOptions par;
    par.threads = threads;
    auto space = BuildStateSpace(q, initial, par);
    ASSERT_TRUE(space.ok()) << "threads = " << threads;
    ExpectSameSpace(*base, *space);
  }
}

// The noninflationary datalog walks and choice chains the serving
// benchmarks explore: a walk on a ring or torus (one weighted step per
// iteration) and k independent binary choices re-made every step.
constexpr char kWalkProgram[] =
    "cur(0).\n"
    "mv(<K>, Y) @P :- one(K), cur(X), e(X, Y, P).\n"
    "cur(Y) :- mv(K, Y).\n";
constexpr char kChoiceProgram[] = "pick(<K>, V) @W :- opt(K, V, W).\n";

std::string Edge(int from, int to, int weight) {
  return "  (" + std::to_string(from) + ", " + std::to_string(to) + ", " +
         std::to_string(weight) + ")\n";
}

// A rows x cols torus with edges to the right and down, and to the left
// and up too unless `rows` is 1 (then it is a two-way ring of `cols`).
std::string TorusWalkData(int rows, int cols) {
  std::string out = "relation one(k) {\n  (0)\n}\nrelation e(i, j, p) {\n";
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int i = r * cols + c;
      out += Edge(i, r * cols + (c + 1) % cols, 1 + i % 3);
      out += Edge(i, r * cols + (c + cols - 1) % cols, 1 + (i + 1) % 4);
      if (rows > 1) {
        out += Edge(i, ((r + 1) % rows) * cols + c, 2);
        out += Edge(i, ((r + rows - 1) % rows) * cols + c, 1 + i % 2);
      }
    }
  }
  return out + "}\n";
}

std::string ChoiceData(int k) {
  std::string out = "relation opt(k, v, w) {\n";
  for (int i = 0; i < k; ++i) {
    out += Edge(i, 0, 1 + i % 3);
    out += Edge(i, 1, 1 + (i + 1) % 4);
  }
  return out + "}\n";
}

// Threads change who interns a successor first, never the numbering: the
// merge numbers states in frontier order, so a 4-thread build lists the
// same states in the same order with the same rows as a sequential one.
TEST(StateSpaceTest, DatalogWalksAndChoicesBuildIdenticallyAcrossThreads) {
  struct Case {
    const char* program;
    std::string data;
    size_t states;
  };
  const Case cases[] = {
      {kWalkProgram, TorusWalkData(1, 5), 5 * 5 + 2},
      {kWalkProgram, TorusWalkData(3, 3), 81 + 2},
      {kChoiceProgram, ChoiceData(3), 8 + 1},
      {kChoiceProgram, ChoiceData(6), 64 + 1},
  };
  for (const Case& c : cases) {
    auto program = datalog::ParseProgram(c.program);
    ASSERT_TRUE(program.ok()) << program.status();
    auto edb = ParseInstanceText(c.data);
    ASSERT_TRUE(edb.ok()) << edb.status();
    auto tq = datalog::TranslateNonInflationary(*program, *edb);
    ASSERT_TRUE(tq.ok()) << tq.status();

    StateSpaceOptions seq;
    seq.threads = 1;
    auto base = BuildStateSpace(tq->kernel, tq->initial, seq);
    ASSERT_TRUE(base.ok()) << base.status();
    EXPECT_EQ(base->states.size(), c.states) << c.data;
    EXPECT_EQ(base->states[0], tq->initial);
    StateSpaceOptions par;
    par.threads = 4;
    auto space = BuildStateSpace(tq->kernel, tq->initial, par);
    ASSERT_TRUE(space.ok()) << space.status();
    ExpectSameSpace(*base, *space);
  }
}

TEST(StateSpaceTest, ThreadedMaxStatesSameError) {
  StateSpaceOptions seq;
  seq.max_states = 3;
  auto base = BuildStateSpace(WalkKernel(), CycleInstance(6), seq);
  ASSERT_FALSE(base.ok());
  StateSpaceOptions par = seq;
  par.threads = 4;
  auto space = BuildStateSpace(WalkKernel(), CycleInstance(6), par);
  ASSERT_FALSE(space.ok());
  EXPECT_EQ(space.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(space.status().ToString(), base.status().ToString());
}

}  // namespace
}  // namespace pfql
