// Differential suite: every sampling estimator (Thm 4.3 Monte Carlo,
// Thm 5.6 MCMC, the Def 3.2 trajectory time-average) is checked against
// the exact algorithms (Prop 4.4, Prop 5.4/Thm 5.5) on small fixtures
// whose probabilities are known in closed form. Parameterized over 50
// seeds; evaluation is single-threaded and seeded, so each instantiation
// is fully deterministic — a seed that passes once passes always. Each
// test calls the estimators directly.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "datalog/program.h"
#include "eval/inflationary.h"
#include "eval/noninflationary.h"
#include "eval/trajectory.h"
#include "gadgets/graphs.h"

namespace pfql {
namespace eval {
namespace {

// The agreement margin for the (epsilon, delta) samplers is epsilon
// itself: the Hoeffding bound promises |estimate - truth| <= epsilon with
// probability 1 - delta, and in practice the bound is loose enough that
// every seed here lands well inside it.
constexpr double kEpsilon = 0.05;
constexpr double kDelta = 0.02;

// The diamond from the Prop 4.4 examples: from node 0 a repair-key choice
// takes the edge to 1 (weight 1) or to 2 (weight 3), and both feed node 3.
//   Pr[cur(1)] = 1/4   Pr[cur(2)] = 3/4   Pr[cur(3)] = 1
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

datalog::Program ReachProgram() {
  auto program = datalog::ParseProgram(R"(
    cur(0).
    c2(<X>, Y) @P :- cur(X), e(X, Y, P).
    cur(Y) :- c2(X, Y).
  )");
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// Thm 5.6 MCMC at (kEpsilon, kDelta) on `backend`, seeded with `seed`.
// Without an explicit burn-in it measures one: the chain's TV mixing time
// from the initial state at kEpsilon / 2.
StatusOr<McmcResult> Mcmc(const ForeverQuery& query, const Instance& initial,
                          Backend backend, std::optional<size_t> burn_in,
                          uint64_t seed) {
  McmcParams params;
  params.epsilon = kEpsilon;
  params.delta = kDelta;
  params.backend = backend;
  if (burn_in.has_value()) {
    params.burn_in = *burn_in;
  } else {
    PFQL_ASSIGN_OR_RETURN(params.burn_in,
                          MeasureMixingTimeTV(query.kernel, initial,
                                              kEpsilon / 2));
  }
  Rng rng(seed);
  return McmcForever(query, initial, params, &rng);
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Exact Prop 4.4 traversal vs Thm 4.3 Monte Carlo on the same query.
TEST_P(DifferentialTest, ApproxAgreesWithExactInflationary) {
  const datalog::Program program = ReachProgram();
  const Instance edb = DiamondEdb();
  const QueryEvent events[] = {{"cur", Tuple{Value(1)}},
                               {"cur", Tuple{Value(2)}},
                               {"cur", Tuple{Value(3)}}};
  for (const QueryEvent& event : events) {
    auto exact = ExactInflationary(program, edb, event);
    ASSERT_TRUE(exact.ok()) << exact.status();

    ApproxParams params;
    params.epsilon = kEpsilon;
    params.delta = kDelta;
    Rng rng(GetParam());
    auto sampled = ApproxInflationary(program, edb, event, params, &rng);
    ASSERT_TRUE(sampled.ok()) << sampled.status();
    EXPECT_NEAR(sampled->estimate, exact->ToDouble(), kEpsilon)
        << "seed " << GetParam() << " event " << event.ToString();
  }
}

// Exact Prop 5.4 chain analysis vs Thm 5.6 MCMC for a forever query on
// the complete graph on 4 nodes (stationary mass 1/4 per node).
TEST_P(DifferentialTest, McmcAgreesWithExactForever) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  const ForeverQuery query{wq->kernel, gadgets::WalkAtNode(1)};

  auto exact = ExactForever(query, wq->initial);
  ASSERT_TRUE(exact.ok()) << exact.status();

  auto sampled = Mcmc(query, wq->initial, Backend::kInterpreted,
                      std::nullopt, GetParam());
  ASSERT_TRUE(sampled.ok()) << sampled.status();
  EXPECT_NEAR(sampled->estimate, exact->probability.ToDouble(), kEpsilon)
      << "seed " << GetParam();
}

// Reducible chain (Thm 5.5): two absorbing self-loops entered with
// probability 1/4 and 3/4. MCMC restarts must average over both fates.
TEST_P(DifferentialTest, McmcAgreesWithExactOnReducibleChain) {
  gadgets::Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1, 1.0}, {0, 2, 3.0}, {1, 1, 1.0}, {2, 2, 1.0}};
  auto wq = gadgets::RandomWalkQuery(g, 0);
  ASSERT_TRUE(wq.ok());
  const ForeverQuery query{wq->kernel, gadgets::WalkAtNode(2)};

  auto exact = ExactForever(query, wq->initial);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact->probability, BigRational(3, 4));

  auto sampled =
      Mcmc(query, wq->initial, Backend::kInterpreted, 8, GetParam());
  ASSERT_TRUE(sampled.ok()) << sampled.status();
  EXPECT_NEAR(sampled->estimate, 0.75, kEpsilon) << "seed " << GetParam();
}

// The Def 3.2 trajectory time-average vs the exact stationary value. Its
// confidence interval is empirical: the per-run time averages are i.i.d.,
// so the reported halfwidth is ~2 standard errors over the runs (floored
// at kEpsilon for the degenerate all-runs-identical case).
TEST_P(DifferentialTest, TrajectoryAgreesWithExactForever) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  const ForeverQuery query{wq->kernel, gadgets::WalkAtNode(1)};

  auto exact = ExactForever(query, wq->initial);
  ASSERT_TRUE(exact.ok()) << exact.status();

  TrajectoryParams params;
  params.steps = 2000;
  params.runs = 16;
  Rng rng(GetParam());
  auto result = TimeAverageEstimate(query, wq->initial, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->per_run.size(), params.runs);

  double variance = 0.0;
  for (double r : result->per_run) {
    variance += (r - result->estimate) * (r - result->estimate);
  }
  variance /= static_cast<double>(result->per_run.size() - 1);
  const double stderr_runs =
      std::sqrt(variance / static_cast<double>(result->per_run.size()));
  const double halfwidth = std::max(2.0 * stderr_runs, kEpsilon);
  EXPECT_NEAR(result->estimate, exact->probability.ToDouble(), halfwidth)
      << "seed " << GetParam();
}

// ---- Compiled-tier variants ------------------------------------------
// The compiled backend quantizes transition probabilities to 1/65535
// units, perturbing each step's distribution by at most k/(2*65535) in
// total variation — orders of magnitude below kEpsilon, so the agreement
// margin gains a token 0.005 of slack and nothing more.
constexpr double kQuantSlack = 0.005;

TEST_P(DifferentialTest, CompiledMcmcAgreesWithExactForever) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  const ForeverQuery query{wq->kernel, gadgets::WalkAtNode(1)};

  auto exact = ExactForever(query, wq->initial);
  ASSERT_TRUE(exact.ok()) << exact.status();

  auto sampled = Mcmc(query, wq->initial, Backend::kCompiled, std::nullopt,
                      GetParam());
  ASSERT_TRUE(sampled.ok()) << sampled.status();
  EXPECT_TRUE(sampled->compiled);
  EXPECT_NEAR(sampled->estimate, exact->probability.ToDouble(),
              kEpsilon + kQuantSlack)
      << "seed " << GetParam();
}

TEST_P(DifferentialTest, CompiledMcmcAgreesWithExactOnReducibleChain) {
  gadgets::Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1, 1.0}, {0, 2, 3.0}, {1, 1, 1.0}, {2, 2, 1.0}};
  auto wq = gadgets::RandomWalkQuery(g, 0);
  ASSERT_TRUE(wq.ok());
  const ForeverQuery query{wq->kernel, gadgets::WalkAtNode(2)};

  auto sampled = Mcmc(query, wq->initial, Backend::kCompiled, 8, GetParam());
  ASSERT_TRUE(sampled.ok()) << sampled.status();
  EXPECT_TRUE(sampled->compiled);
  EXPECT_NEAR(sampled->estimate, 0.75, kEpsilon + kQuantSlack)
      << "seed " << GetParam();
}

TEST_P(DifferentialTest, CompiledTrajectoryAgreesWithExactForever) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  const ForeverQuery query{wq->kernel, gadgets::WalkAtNode(1)};

  auto exact = ExactForever(query, wq->initial);
  ASSERT_TRUE(exact.ok()) << exact.status();

  TrajectoryParams params;
  params.steps = 2000;
  params.runs = 16;
  params.backend = Backend::kCompiled;
  Rng rng(GetParam());
  auto result = TimeAverageEstimate(query, wq->initial, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->compiled);
  ASSERT_EQ(result->per_run.size(), params.runs);

  double variance = 0.0;
  for (double r : result->per_run) {
    variance += (r - result->estimate) * (r - result->estimate);
  }
  variance /= static_cast<double>(result->per_run.size() - 1);
  const double stderr_runs =
      std::sqrt(variance / static_cast<double>(result->per_run.size()));
  const double halfwidth = std::max(2.0 * stderr_runs, kEpsilon + kQuantSlack);
  EXPECT_NEAR(result->estimate, exact->probability.ToDouble(), halfwidth)
      << "seed " << GetParam();
}

// 50 consecutive seeds; every instantiation must pass (the CI acceptance
// criterion for the differential suite).
INSTANTIATE_TEST_SUITE_P(FiftySeeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 51));

}  // namespace
}  // namespace eval
}  // namespace pfql
