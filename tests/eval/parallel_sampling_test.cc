// Multi-threaded sampling must agree with the single-threaded estimators
// (different RNG streams, same statistical guarantees) and actually split
// the work.
#include <gtest/gtest.h>

#include "datalog/program.h"
#include "eval/inflationary.h"
#include "eval/noninflationary.h"
#include "gadgets/graphs.h"

namespace pfql {
namespace eval {
namespace {

Instance DiamondEdb() {
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value(0), Value(1), Value(1)});
  e.Insert(Tuple{Value(0), Value(2), Value(3)});
  e.Insert(Tuple{Value(1), Value(1), Value(1)});
  e.Insert(Tuple{Value(2), Value(2), Value(1)});
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

class ThreadCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ThreadCountTest, ApproxInflationaryConsistentAcrossThreadCounts) {
  ApproxParams params;
  params.epsilon = 0.04;
  params.delta = 0.02;
  params.threads = GetParam();
  Rng rng(11);
  auto result = ApproxInflationary(ReachProgram(), DiamondEdb(),
                                   {"cur", Tuple{Value(2)}}, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->samples,
            HoeffdingCount(params.epsilon, params.delta).value());
  EXPECT_NEAR(result->estimate, 0.75, params.epsilon + 0.01);
  EXPECT_GT(result->total_steps, 0u);
}

TEST_P(ThreadCountTest, McmcConsistentAcrossThreadCounts) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  McmcParams params;
  params.burn_in = 3;
  params.epsilon = 0.04;
  params.delta = 0.02;
  params.threads = GetParam();
  Rng rng(12);
  auto result = McmcForever({wq->kernel, gadgets::WalkAtNode(1)},
                            wq->initial, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result->estimate, 0.25, params.epsilon + 0.01);
  EXPECT_EQ(result->total_steps, params.burn_in * result->samples);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelSamplingTest, MoreThreadsThanSamplesClamped) {
  ApproxParams params;
  params.epsilon = 0.45;  // tiny sample count
  params.delta = 0.45;
  params.threads = 64;
  Rng rng(13);
  auto result = ApproxInflationary(ReachProgram(), DiamondEdb(),
                                   {"cur", Tuple{Value(2)}}, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->samples,
            HoeffdingCount(params.epsilon, params.delta).value());
}

TEST(ParallelSamplingTest, WorkerErrorsPropagate) {
  // Program whose EDB is missing: every worker fails; the error must reach
  // the caller instead of being swallowed.
  ApproxParams params;
  params.threads = 4;
  Rng rng(14);
  auto result = ApproxInflationary(ReachProgram(), Instance{},
                                   {"cur", Tuple{Value(2)}}, params, &rng);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace eval
}  // namespace pfql
