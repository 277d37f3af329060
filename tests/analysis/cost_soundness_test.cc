// Property suite for the cost model's central contract: the predicted
// state-space interval must bracket the states BuildStateSpace actually
// enumerates (lo <= actual <= hi) on every corpus program, and the
// compiled-backend eligibility verdict must match what the kAuto tier
// would discover by attempting the compile. The corpus mirrors the
// differential suite: the diamond reach fixture, 50 seeded random
// digraphs, and every example program shipped in examples/programs/.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "datalog/program.h"
#include "datalog/translate.h"
#include "gadgets/graphs.h"
#include "markov/state_space.h"
#include "relational/instance.h"
#include "util/random.h"

namespace pfql {
namespace analysis {
namespace {

namespace fs = std::filesystem;

datalog::Program Parse(const std::string& source) {
  auto program = datalog::ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return *program;
}

Instance DiamondEdb() {
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value(0), Value(1), Value(1)});
  e.Insert(Tuple{Value(0), Value(2), Value(3)});
  e.Insert(Tuple{Value(1), Value(3), Value(1)});
  e.Insert(Tuple{Value(2), Value(3), Value(1)});
  e.Insert(Tuple{Value(3), Value(3), Value(1)});
  edb.Set("e", std::move(e));
  return edb;
}

constexpr char kReachSource[] = R"(
  cur(0).
  c2(<X>, Y) @P :- cur(X), e(X, Y, P).
  cur(Y) :- c2(X, Y).
)";

// One-step weighted pick over the whole edge relation: the qualifying
// lower-bound path, where the interval should be exact.
constexpr char kPickSource[] = R"(
  pick(<X>, Y) @P :- e(X, Y, P).
)";

constexpr size_t kActualBudget = 1 << 12;

/// Asserts lo <= |reachable states| <= hi. When enumeration exhausts the
/// budget the actual count exceeds it, so hi must too.
void CheckBounds(const datalog::Program& program, const Instance& edb,
                 const std::string& label) {
  CostOptions options;
  options.edb = &edb;
  options.max_states = kActualBudget;
  DiagnosticSink sink;
  const CostReport report = AnalyzeCost(program, options, &sink);

  auto translated = datalog::TranslateNonInflationary(program, edb);
  ASSERT_TRUE(translated.ok()) << label << ": " << translated.status();
  StateSpaceOptions space_options;
  space_options.max_states = kActualBudget;
  auto space =
      BuildStateSpace(translated->kernel, translated->initial, space_options);
  if (!space.ok()) {
    ASSERT_EQ(space.status().code(), StatusCode::kResourceExhausted)
        << label << ": " << space.status();
    EXPECT_GT(report.states.hi, kActualBudget)
        << label << ": enumeration overflowed " << kActualBudget
        << " states but the upper bound claims fewer";
    return;
  }
  const uint64_t actual = space->states.size();
  EXPECT_LE(report.states.lo, actual)
      << label << ": certified lower bound overshoots reality";
  EXPECT_GE(report.states.hi, actual)
      << label << ": upper bound misses reachable states";

  // Backend verdict vs what kAuto discovers: the compiled tier accepts the
  // chain iff it enumerates within compile_max_states.
  const bool fits = actual <= options.compile_max_states;
  if (report.backend_verdict == "compiled") {
    EXPECT_TRUE(fits) << label << ": verdict promised a compile that the "
                      << actual << "-state chain would reject";
  } else if (report.backend_verdict == "interpreted") {
    EXPECT_FALSE(fits) << label << ": verdict skipped a compile the "
                       << actual << "-state chain would accept";
  }
}

TEST(CostSoundnessTest, DiamondReach) {
  CheckBounds(Parse(kReachSource), DiamondEdb(), "diamond-reach");
}

TEST(CostSoundnessTest, DiamondPick) {
  CheckBounds(Parse(kPickSource), DiamondEdb(), "diamond-pick");
}

// An atom's constant matches as the engine's select does: 1.0 matches the
// int weight 1, so four choices of two keys are live (5 states).
TEST(CostSoundnessTest, ConstantMatchesIntNumerically) {
  Instance edb;
  Relation opt(Schema({"k", "v", "w"}));
  opt.Insert(Tuple{Value(0), Value(0), Value(1)});
  opt.Insert(Tuple{Value(0), Value(1), Value(1)});
  opt.Insert(Tuple{Value(1), Value(0), Value(1)});
  opt.Insert(Tuple{Value(1), Value(1), Value(1)});
  opt.Insert(Tuple{Value(1), Value(2), Value(2)});
  edb.Set("opt", std::move(opt));
  CheckBounds(Parse("pick(<K>, V) :- opt(K, V, 1.0)."), edb,
              "constant-pick");
}

class CostSoundnessSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CostSoundnessSeeds, RandomDigraphReach) {
  Rng rng(GetParam());
  const int64_t n = 3 + static_cast<int64_t>(GetParam() % 2);
  gadgets::Graph graph = gadgets::RandomDigraph(n, 0.4, &rng);
  Instance edb;
  edb.Set("e", graph.ToEdgeRelation());
  CheckBounds(Parse(kReachSource), edb,
              "reach-seed-" + std::to_string(GetParam()));
}

TEST_P(CostSoundnessSeeds, RandomDigraphPick) {
  Rng rng(GetParam() + 1000);
  const int64_t n = 3 + static_cast<int64_t>(GetParam() % 2);
  gadgets::Graph graph = gadgets::RandomDigraph(n, 0.4, &rng);
  Instance edb;
  edb.Set("e", graph.ToEdgeRelation());
  CheckBounds(Parse(kPickSource), edb,
              "pick-seed-" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, CostSoundnessSeeds,
                         ::testing::Range(uint64_t{1}, uint64_t{51}));

// Every shipped example program is self-contained (facts inline), so the
// bounds must hold with no instance supplied at all.
TEST(CostSoundnessTest, ExamplePrograms) {
  const fs::path dir = fs::path(PFQL_REPO_DIR) / "examples/programs";
  ASSERT_TRUE(fs::exists(dir));
  size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".dl") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    CheckBounds(Parse(buffer.str()), Instance(),
                entry.path().filename().string());
    ++checked;
  }
  EXPECT_GE(checked, 4u);
}

}  // namespace
}  // namespace analysis
}  // namespace pfql
