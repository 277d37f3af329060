// Graceful degradation of the three samplers: an interruption (injected
// fault or deadline) mid-sampling yields a *degraded* result whose estimate
// is exactly the same-seed full run restricted to the completed prefix —
// checkpointed running estimates, not a recomputation.
#include <gtest/gtest.h>

#include <chrono>
#include <ostream>

#include "datalog/program.h"
#include "eval/inflationary.h"
#include "eval/noninflationary.h"
#include "eval/trajectory.h"
#include "gadgets/graphs.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"

namespace pfql {
namespace eval {

// Names the tier in parameterized test names (found by argument-dependent
// lookup; identical wherever a test binary defines it).
inline void PrintTo(Backend backend, std::ostream* os) {
  *os << BackendToString(backend);
}

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

class DegradedSamplingTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Instance().Reset(); }
  void TearDown() override { fault::FaultRegistry::Instance().Reset(); }
};

// ---- approx (Thm 4.3) --------------------------------------------------

TEST_F(DegradedSamplingTest, ApproxFaultAtHalfBudgetDegrades) {
  ApproxParams params;
  params.epsilon = 0.2;
  params.delta = 0.2;
  params.allow_partial = true;
  const size_t budget = HoeffdingCount(params.epsilon, params.delta).value();
  ASSERT_GE(budget, 4u);
  // The acceptance scenario: force the interruption at 50% of the budget.
  fault::ScopedFault fault(fault::points::kApproxSample,
                           fault::FaultSpec::NthHit(budget / 2));
  Rng rng(21);
  auto result = ApproxInflationary(ReachProgram(), DiamondEdb(),
                                   {"cur", Tuple{Value(2)}}, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->samples, budget / 2 - 1);
  EXPECT_EQ(result->samples_requested, budget);
  EXPECT_EQ(result->interruption.code(), StatusCode::kUnavailable);
}

TEST_F(DegradedSamplingTest, ApproxDegradedEstimateEqualsSameSeedPrefix) {
  constexpr uint64_t kSeed = 77;
  constexpr size_t kFaultAt = 12;

  ApproxParams degraded_params;
  degraded_params.allow_partial = true;
  degraded_params.threads = 1;
  auto degraded = [&] {
    fault::ScopedFault fault(fault::points::kApproxSample,
                             fault::FaultSpec::NthHit(kFaultAt));
    Rng rng(kSeed);
    return ApproxInflationary(ReachProgram(), DiamondEdb(),
                              {"cur", Tuple{Value(2)}}, degraded_params,
                              &rng);
  }();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_TRUE(degraded->degraded);
  ASSERT_EQ(degraded->samples, kFaultAt - 1);

  // A clean run budgeted to exactly the completed prefix, same seed: the
  // RNG streams coincide, so the estimates must agree to the bit.
  ApproxParams prefix_params;
  prefix_params.threads = 1;
  prefix_params.max_samples = kFaultAt - 1;
  Rng rng(kSeed);
  auto prefix = ApproxInflationary(ReachProgram(), DiamondEdb(),
                                   {"cur", Tuple{Value(2)}}, prefix_params,
                                   &rng);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  EXPECT_FALSE(prefix->degraded);
  EXPECT_EQ(prefix->samples, kFaultAt - 1);
  EXPECT_EQ(degraded->estimate, prefix->estimate);
  EXPECT_EQ(degraded->total_steps, prefix->total_steps);
}

TEST_F(DegradedSamplingTest, ApproxPartialSampleCountsGrowMonotonically) {
  size_t previous = 0;
  for (size_t n : {4u, 8u, 16u, 24u}) {
    fault::ScopedFault fault(fault::points::kApproxSample,
                             fault::FaultSpec::NthHit(n));
    ApproxParams params;
    params.allow_partial = true;
    params.threads = 1;
    Rng rng(5);
    auto result = ApproxInflationary(ReachProgram(), DiamondEdb(),
                                     {"cur", Tuple{Value(2)}}, params, &rng);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->degraded);
    EXPECT_EQ(result->samples, n - 1);
    EXPECT_GT(result->samples, previous);
    previous = result->samples;
  }
}

TEST_F(DegradedSamplingTest, ApproxWithoutAllowPartialStillFails) {
  fault::ScopedFault fault(fault::points::kApproxSample,
                           fault::FaultSpec::NthHit(3));
  ApproxParams params;  // allow_partial defaults to false in the library
  Rng rng(9);
  auto result = ApproxInflationary(ReachProgram(), DiamondEdb(),
                                   {"cur", Tuple{Value(2)}}, params, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(DegradedSamplingTest, ApproxZeroCompletedSamplesIsAHardError) {
  // Nothing finished => nothing to degrade to, even with allow_partial.
  fault::ScopedFault fault(fault::points::kApproxSample,
                           fault::FaultSpec::NthHit(1));
  ApproxParams params;
  params.allow_partial = true;
  params.threads = 1;
  Rng rng(9);
  auto result = ApproxInflationary(ReachProgram(), DiamondEdb(),
                                   {"cur", Tuple{Value(2)}}, params, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(DegradedSamplingTest, ApproxDeadlineMidSamplingDegrades) {
  ApproxParams params;
  params.allow_partial = true;
  params.threads = 1;
  params.max_samples = 100000000;  // far more than 60ms of work
  CancellationToken token(std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(60));
  params.cancel = &token;
  Rng rng(31);
  auto result = ApproxInflationary(ReachProgram(), DiamondEdb(),
                                   {"cur", Tuple{Value(2)}}, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->interruption.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(result->samples, 1u);
  EXPECT_LT(result->samples, params.max_samples);
}

// ---- mcmc (Thm 5.6) ----------------------------------------------------

TEST_F(DegradedSamplingTest, McmcSampleInterruptedMidBurnInIsDiscarded) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  McmcParams params;
  params.burn_in = 1 << 24;  // one sample takes far longer than the deadline
  params.allow_partial = true;
  params.max_samples = 4;
  params.threads = 1;
  CancellationToken token(std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(40));
  params.cancel = &token;
  Rng rng(3);
  auto result = McmcForever({wq->kernel, gadgets::WalkAtNode(1)},
                            wq->initial, params, &rng);
  // The only sample in flight dies mid-burn-in; nothing completed, so this
  // must be the hard deadline error, never a degraded estimate built from
  // an un-mixed sample.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// ---- trajectory (Def 3.2) ----------------------------------------------

TEST_F(DegradedSamplingTest, TrajectoryWithoutAllowPartialStillFails) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  fault::ScopedFault fault(fault::points::kTrajectoryRun,
                           fault::FaultSpec::NthHit(2));
  TrajectoryParams params;
  params.steps = 50;
  params.runs = 4;
  Rng rng(8);
  auto result = TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(1)},
                                    wq->initial, params, &rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

// ---- both tiers: the degraded prefix is the same-seed prefix run --------

class DegradedBackendTest : public DegradedSamplingTest,
                            public ::testing::WithParamInterface<Backend> {};

TEST_P(DegradedBackendTest, McmcDegradedEstimateEqualsSameSeedPrefix) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  constexpr uint64_t kSeed = 55;
  constexpr size_t kFaultAt = 9;

  McmcParams degraded_params;
  degraded_params.burn_in = 3;
  degraded_params.allow_partial = true;
  degraded_params.threads = 1;
  degraded_params.backend = GetParam();
  auto degraded = [&] {
    fault::ScopedFault fault(fault::points::kMcmcSample,
                             fault::FaultSpec::NthHit(kFaultAt));
    Rng rng(kSeed);
    return McmcForever({wq->kernel, gadgets::WalkAtNode(1)}, wq->initial,
                       degraded_params, &rng);
  }();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->compiled, GetParam() == Backend::kCompiled);
  EXPECT_EQ(degraded->samples, kFaultAt - 1);
  EXPECT_EQ(degraded->total_steps, degraded_params.burn_in * (kFaultAt - 1));

  McmcParams prefix_params = degraded_params;
  prefix_params.allow_partial = false;
  prefix_params.max_samples = kFaultAt - 1;
  Rng rng(kSeed);
  auto prefix = McmcForever({wq->kernel, gadgets::WalkAtNode(1)},
                            wq->initial, prefix_params, &rng);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  EXPECT_FALSE(prefix->degraded);
  EXPECT_EQ(degraded->estimate, prefix->estimate);
}

TEST_P(DegradedBackendTest, TrajectoryDegradedEstimateEqualsSameSeedPrefix) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  constexpr uint64_t kSeed = 91;

  TrajectoryParams degraded_params;
  degraded_params.steps = 200;
  degraded_params.runs = 8;
  degraded_params.allow_partial = true;
  degraded_params.backend = GetParam();
  auto degraded = [&] {
    fault::ScopedFault fault(fault::points::kTrajectoryRun,
                             fault::FaultSpec::NthHit(3));
    Rng rng(kSeed);
    return TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(1)},
                               wq->initial, degraded_params, &rng);
  }();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->compiled, GetParam() == Backend::kCompiled);
  EXPECT_EQ(degraded->per_run.size(), 2u);
  EXPECT_EQ(degraded->runs_requested, 8u);

  TrajectoryParams prefix_params = degraded_params;
  prefix_params.allow_partial = false;
  prefix_params.runs = 2;  // exactly the completed prefix
  Rng rng(kSeed);
  auto prefix = TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(1)},
                                    wq->initial, prefix_params, &rng);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  EXPECT_FALSE(prefix->degraded);
  EXPECT_EQ(degraded->per_run, prefix->per_run);
  EXPECT_EQ(degraded->estimate, prefix->estimate);
  EXPECT_EQ(degraded->total_steps, prefix->total_steps);
  EXPECT_EQ(degraded->ci_halfwidth, prefix->ci_halfwidth);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DegradedBackendTest,
    ::testing::Values(Backend::kInterpreted, Backend::kCompiled));

TEST_F(DegradedSamplingTest, CompiledTrajectoryDeadlineKeepsFinishedRuns) {
  // Runs are drawn one at a time on the compiled tier too, so a deadline
  // mid-run keeps every run finished before it.
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  TrajectoryParams params;
  params.steps = 200000;
  params.runs = 100000;  // far more than 100ms of work
  params.allow_partial = true;
  params.backend = Backend::kCompiled;
  CancellationToken token(std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(100));
  params.cancel = &token;
  Rng rng(17);
  auto result = TimeAverageEstimate({wq->kernel, gadgets::WalkAtNode(1)},
                                    wq->initial, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->compiled);
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->interruption.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(result->per_run.size(), 1u);
  EXPECT_LT(result->per_run.size(), params.runs);
  EXPECT_EQ(result->total_steps, result->per_run.size() * params.steps);
}

}  // namespace
}  // namespace eval
}  // namespace pfql
