// Exact forever answers (Prop 5.4, Thm 5.5) pinned to literal values, on
// chains whose elimination runs through multi-limb BigRational arithmetic,
// and the interpreted and compiled samplers' seeded answers, a compiled
// chain and a state-space order, pinned the same way. Other checks compare
// against answers computed by the same binary, so a deterministic
// arithmetic bug, a changed draw order, or a chain row rebuilt in another
// order would pass them; it cannot pass these.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "datalog/program.h"
#include "datalog/query_parse.h"
#include "datalog/translate.h"
#include "eval/noninflationary.h"
#include "eval/partition.h"
#include "eval/resumable.h"
#include "eval/trajectory.h"
#include "markov/compiled_chain.h"
#include "markov/state_space.h"
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

// The partition keys of the e2e exact_chain workload:
// `pick(<K>, V) @W :- opt(K, V, W).` over k binary choices whose weights
// 1..4 follow a fixed hash of (pattern, key, value).
int PatternWeight(int pattern, int i, int e) {
  uint64_t z = static_cast<uint64_t>(pattern) * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(i) * 0xbf58476d1ce4e5b9ULL +
               static_cast<uint64_t>(e) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  z *= 0xd6e8feb86659fd39ULL;
  z ^= z >> 29;
  return 1 + static_cast<int>(z % 4);
}

std::string ChoiceData(int k, int pattern) {
  std::string out = "relation opt(k, v, w) {\n";
  for (int i = 0; i < k; ++i) {
    for (int v = 0; v < 2; ++v) {
      out += "  (" + std::to_string(i) + ", " + std::to_string(v) + ", " +
             std::to_string(PatternWeight(pattern, i, v)) + ")\n";
    }
  }
  return out + "}\n";
}

TEST(NoninflationaryPinnedTest, PartitionOnEightChoices) {
  auto program = datalog::ParseProgram("pick(<K>, V) @W :- opt(K, V, W).\n");
  ASSERT_TRUE(program.ok()) << program.status();
  const char* const expected[] = {"1/5", "2/5", "2/3", "3/7"};
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    auto event =
        datalog::ParseGroundAtom("pick(" + std::to_string(i) + ", 0)");
    ASSERT_TRUE(event.ok()) << event.status();
    auto r = PartitionedExactForever(*program, Edb(ChoiceData(8, i)), *event);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->probability.ToString(), expected[i]);
    EXPECT_EQ(r->num_classes, 8u);
    size_t states = 0;
    for (size_t s : r->states_per_class) states += s;
    EXPECT_EQ(states, 24u);
  }
}

TEST(NoninflationaryPinnedTest, ForeverOnRing10) {
  EXPECT_EQ(Forever(Edb(RingData(10)), "cur(1)"), "389841/1402294");
}

// ---- Seeded interpreted samplers ----------------------------------------

ForeverQuery RingWalk(int n, const char* event,
                      datalog::TranslatedQuery* tq) {
  auto translated = datalog::TranslateNonInflationary(Walk(), Edb(RingData(n)));
  EXPECT_TRUE(translated.ok()) << translated.status();
  *tq = std::move(translated).value();
  auto query_event = datalog::ParseGroundAtom(event);
  EXPECT_TRUE(query_event.ok()) << query_event.status();
  return {tq->kernel, *query_event};
}

TEST(NoninflationaryPinnedTest, InterpretedMcmcOnRing4) {
  datalog::TranslatedQuery tq;
  const ForeverQuery query = RingWalk(4, "cur(1)", &tq);
  McmcParams params;
  params.burn_in = 32;
  params.epsilon = 0.1;
  params.delta = 0.1;
  params.backend = Backend::kInterpreted;
  Rng rng(20260117);
  auto r = McmcForever(query, tq.initial, params, &rng);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->compiled);
  EXPECT_EQ(r->samples, 150u);
  EXPECT_EQ(r->total_steps, 4800u);
  EXPECT_EQ(r->estimate, 0.23333333333333334);  // 35 hits of 150
}

TEST(NoninflationaryPinnedTest, InterpretedTrajectoryOnRing5) {
  datalog::TranslatedQuery tq;
  const ForeverQuery query = RingWalk(5, "cur(2)", &tq);
  TrajectoryParams params;
  params.steps = 1000;
  params.runs = 8;
  params.backend = Backend::kInterpreted;
  Rng rng(7);
  auto r = TimeAverageEstimate(query, tq.initial, params, &rng);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->compiled);
  EXPECT_EQ(r->total_steps, 8000u);
  EXPECT_EQ(r->estimate, 0.14180555555555555);
  // Hits over the 900 post-discard steps of each run.
  EXPECT_EQ(r->per_run,
            (std::vector<double>{116.0 / 900, 135.0 / 900, 124.0 / 900,
                                 131.0 / 900, 135.0 / 900, 135.0 / 900,
                                 122.0 / 900, 123.0 / 900}));
}

TEST(NoninflationaryPinnedTest, McmcChainsAfterFixedQuanta) {
  datalog::TranslatedQuery tq;
  const ForeverQuery query = RingWalk(4, "cur(3)", &tq);
  McmcParams params;
  params.burn_in = 16;
  params.epsilon = 0.1;
  params.delta = 0.1;
  auto kernel = tq.kernel.Compile(tq.initial);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  ResumableMcmcChains chains(*kernel, tq.initial, query.event,
                             /*compiled=*/nullptr, params,
                             /*num_chains=*/3, Rng(11));
  for (int q = 0; q < 5; ++q) ASSERT_TRUE(chains.RunQuantum(64, nullptr).ok());
  EXPECT_EQ(chains.snapshot().samples, 320u);
  EXPECT_EQ(chains.snapshot().estimate, 96.0 / 272);
  std::vector<std::pair<size_t, double>> tallies;
  for (const ChainStats& c : chains.chains()) tallies.emplace_back(c.count, c.sum);
  EXPECT_EQ(tallies, (std::vector<std::pair<size_t, double>>{
                         {91, 32.0}, {91, 31.0}, {90, 33.0}}));
}

// ---- Seeded compiled samplers and the chain they step --------------------

std::shared_ptr<const CompiledSpace> Compiled(
    const datalog::TranslatedQuery& tq) {
  auto compiled = GetOrCompile(tq.kernel, tq.initial);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  return compiled.ok() ? *compiled : nullptr;
}

// Every CSR entry of the ring-8 walk's compiled chain: the quantized row
// and its alias table, folded in row order.
TEST(NoninflationaryPinnedTest, CompiledChainOfRing8Walk) {
  datalog::TranslatedQuery tq;
  RingWalk(8, "cur(1)", &tq);
  const auto compiled = Compiled(tq);
  ASSERT_NE(compiled, nullptr);
  const CompiledChain& chain = compiled->chain;
  EXPECT_EQ(chain.num_states(), 66u);
  EXPECT_EQ(chain.num_edges(), 227u);
  std::vector<std::vector<uint64_t>> rows_1_2;
  uint64_t fold = 0xcbf29ce484222325ull;
  for (size_t s = 0; s < chain.num_states(); ++s) {
    for (uint32_t e = chain.RowBegin(s); e < chain.RowEnd(s); ++e) {
      const std::vector<uint64_t> entry = {s, chain.Col(e), chain.ProbQ(e),
                                           chain.AliasCut(e),
                                           chain.AliasState(e)};
      if (s == 1 || s == 2) rows_1_2.push_back(entry);
      for (const uint64_t v : entry) fold = (fold ^ v) * 0x100000001b3ull;
    }
  }
  // (state, successor, ProbQ, AliasCut, AliasState): two halves, the odd
  // unit of the largest-remainder pass going to the first.
  EXPECT_EQ(rows_1_2, (std::vector<std::vector<uint64_t>>{
                          {1, 2, 32768, 65535, 2},
                          {1, 3, 32767, 65534, 2},
                          {2, 4, 32768, 65535, 4},
                          {2, 5, 32767, 65534, 4}}));
  EXPECT_EQ(fold, 724980902881181926ull);
}

TEST(NoninflationaryPinnedTest, CompiledMcmcOnRing8) {
  datalog::TranslatedQuery tq;
  const ForeverQuery query = RingWalk(8, "cur(1)", &tq);
  McmcParams params;
  params.burn_in = 32;
  params.epsilon = 0.05;
  params.delta = 0.05;
  params.backend = Backend::kCompiled;
  Rng rng(20260117);
  auto r = McmcForever(query, tq.initial, params, &rng);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->compiled);
  EXPECT_EQ(r->samples, 738u);
  EXPECT_EQ(r->total_steps, 23616u);
  EXPECT_EQ(r->estimate, 213.0 / 738);
  EXPECT_EQ(r->compiled_states, 66u);
  EXPECT_EQ(r->compiled_edges, 227u);
}

TEST(NoninflationaryPinnedTest, CompiledTrajectoryOnRing8) {
  datalog::TranslatedQuery tq;
  const ForeverQuery query = RingWalk(8, "cur(2)", &tq);
  TrajectoryParams params;
  params.steps = 1000;
  params.runs = 8;
  params.backend = Backend::kCompiled;
  Rng rng(7);
  auto r = TimeAverageEstimate(query, tq.initial, params, &rng);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->compiled);
  EXPECT_EQ(r->total_steps, 8000u);
  // Hits over the 900 post-discard steps of each run.
  EXPECT_EQ(r->per_run,
            (std::vector<double>{109.0 / 900, 105.0 / 900, 99.0 / 900,
                                 117.0 / 900, 72.0 / 900, 106.0 / 900,
                                 77.0 / 900, 77.0 / 900}));
  EXPECT_EQ(r->estimate, 762.0 / 7200);
}

TEST(NoninflationaryPinnedTest, CompiledMcmcChainsAfterFixedQuanta) {
  datalog::TranslatedQuery tq;
  const ForeverQuery query = RingWalk(8, "cur(3)", &tq);
  McmcParams params;
  params.burn_in = 16;
  params.epsilon = 0.1;
  params.delta = 0.1;
  auto kernel = tq.kernel.Compile(tq.initial);
  ASSERT_TRUE(kernel.ok()) << kernel.status();
  const auto compiled = Compiled(tq);
  ASSERT_NE(compiled, nullptr);
  ResumableMcmcChains chains(*kernel, tq.initial, query.event, compiled,
                             params, /*num_chains=*/3, Rng(11));
  for (int q = 0; q < 5; ++q) ASSERT_TRUE(chains.RunQuantum(64, nullptr).ok());
  EXPECT_EQ(chains.snapshot().backend, "compiled");
  EXPECT_EQ(chains.snapshot().samples, 320u);
  EXPECT_EQ(chains.snapshot().estimate, 9.0 / 272);
  std::vector<std::pair<size_t, double>> tallies;
  for (const ChainStats& c : chains.chains()) {
    tallies.emplace_back(c.count, c.sum);
  }
  EXPECT_EQ(tallies, (std::vector<std::pair<size_t, double>>{
                         {91, 4.0}, {91, 3.0}, {90, 2.0}}));
}

// The state numbering of BuildStateSpace fixes every compiled chain: each
// state is listed as the values it picks, "-" for the initial state.
TEST(NoninflationaryPinnedTest, StateOrderOnDenseChoiceChain) {
  auto program = datalog::ParseProgram("pick(<K>, V) @W :- opt(K, V, W).\n");
  ASSERT_TRUE(program.ok()) << program.status();
  std::string data = "relation opt(k, v, w) {\n";
  for (int k = 0; k < 4; ++k) {
    for (int v = 0; v < 2; ++v) {
      data += "  (" + std::to_string(k) + ", " + std::to_string(v) + ", " +
              std::to_string(1 + (k + 2 * v) % 3) + ")\n";
    }
  }
  auto tq = datalog::TranslateNonInflationary(*program, Edb(data + "}\n"));
  ASSERT_TRUE(tq.ok()) << tq.status();
  auto space = BuildStateSpace(tq->kernel, tq->initial);
  ASSERT_TRUE(space.ok()) << space.status();
  std::string order;
  for (const Instance& state : space->states) {
    const Relation* pick = state.Find("pick");
    std::string picks;
    for (const Tuple& t : pick->tuples()) picks += t[1].ToString();
    order += (picks.empty() ? "-" : picks) + " ";
  }
  EXPECT_EQ(space->states.size(), 17u);
  EXPECT_EQ(order,
            "- 0000 0001 0010 0011 0100 0101 0110 0111 1000 1001 1010 1011 "
            "1100 1101 1110 1111 ");
  EXPECT_EQ(space->chain.num_states(), 17u);
}

}  // namespace
}  // namespace eval
}  // namespace pfql
