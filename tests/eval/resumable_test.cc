// The resumable samplers are the only approx, mcmc and trajectory sampling
// loops: one-shot requests run them to their budget in one quantum,
// subscriptions in many small ones. Quantum-size invariance pins that both
// paths compute the same thing. The compiled restart MCMC is left out on
// purpose: its 512-sample lockstep batches make its RNG order depend on the
// chunking, and subscriptions never run it.
#include "eval/resumable.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>

#include "datalog/program.h"
#include "gadgets/graphs.h"

namespace pfql {
namespace eval {

// Names the tier in parameterized test names (found by argument-dependent
// lookup; identical wherever a test binary defines it).
inline void PrintTo(Backend backend, std::ostream* os) {
  *os << BackendToString(backend);
}

namespace {

using Factory = std::function<std::unique_ptr<ResumableSampler>()>;

// Drives a fresh sampler to its budget in quanta of `quantum` units.
SamplerSnapshot RunInQuanta(const Factory& make, size_t quantum) {
  std::unique_ptr<ResumableSampler> sampler = make();
  while (!sampler->Exhausted()) {
    const Status status = sampler->RunQuantum(quantum, nullptr);
    EXPECT_TRUE(status.ok()) << status;
    if (!status.ok()) break;
  }
  return sampler->snapshot();
}

void ExpectQuantumInvariant(const Factory& make) {
  const SamplerSnapshot whole = RunInQuanta(make, make()->snapshot().budget);
  ASSERT_GT(whole.samples, 0u);
  for (size_t quantum : {size_t{1}, size_t{7}}) {
    const SamplerSnapshot cut = RunInQuanta(make, quantum);
    EXPECT_EQ(cut.estimate, whole.estimate) << "quantum " << quantum;
    EXPECT_EQ(cut.samples, whole.samples) << "quantum " << quantum;
    EXPECT_EQ(cut.total_steps, whole.total_steps) << "quantum " << quantum;
  }
}

std::shared_ptr<const CompiledKernel> Kernel(const gadgets::WalkQuery& wq) {
  auto kernel = wq.kernel.Compile(wq.initial);
  EXPECT_TRUE(kernel.ok()) << kernel.status();
  return kernel.ok() ? *kernel : nullptr;
}

std::shared_ptr<const CompiledSpace> Tier(const gadgets::WalkQuery& wq,
                                          Backend backend) {
  auto compiled = CompileOrFallBack(wq.kernel, wq.initial, backend, 1 << 12,
                                    nullptr);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(*compiled != nullptr, backend == Backend::kCompiled);
  return *compiled;
}

TEST(ResumableSamplerTest, ApproxIsQuantumInvariant) {
  auto program = datalog::ParseProgram(R"(
    cur(0).
    c2(<X>, Y) @P :- cur(X), e(X, Y, P).
    cur(Y) :- c2(X, Y).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  e.Insert(Tuple{Value(0), Value(1), Value(1)});
  e.Insert(Tuple{Value(0), Value(2), Value(3)});
  e.Insert(Tuple{Value(1), Value(1), Value(1)});
  e.Insert(Tuple{Value(2), Value(2), Value(1)});
  edb.Set("e", std::move(e));
  auto shared_program =
      std::make_shared<const datalog::Program>(std::move(program).value());
  auto shared_edb = std::make_shared<const Instance>(std::move(edb));
  ExpectQuantumInvariant([&] {
    return std::make_unique<ResumableApprox>(
        shared_program, shared_edb, QueryEvent{"cur", Tuple{Value(2)}},
        ApproxParams{}, /*budget=*/40, Rng(3));
  });
}

TEST(ResumableSamplerTest, InterpretedRestartMcmcIsQuantumInvariant) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  McmcParams params;
  params.burn_in = 3;
  ExpectQuantumInvariant([&] {
    return std::make_unique<ResumableRestartMcmc>(
        Kernel(*wq), wq->initial, gadgets::WalkAtNode(1), nullptr, params,
        /*budget=*/40, Rng(4));
  });
}

class ResumableTierTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ResumableTierTest, PersistentChainsAreQuantumInvariant) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(wq.ok());
  const auto compiled = Tier(*wq, GetParam());
  McmcParams params;
  params.burn_in = 3;
  params.max_samples = 200;
  ExpectQuantumInvariant([&] {
    return std::make_unique<ResumableMcmcChains>(
        Kernel(*wq), wq->initial, gadgets::WalkAtNode(1), compiled, params,
        /*num_chains=*/3, Rng(5));
  });
}

TEST_P(ResumableTierTest, TrajectoryIsQuantumInvariant) {
  auto wq = gadgets::RandomWalkQuery(gadgets::Cycle(5), 0);
  ASSERT_TRUE(wq.ok());
  const auto compiled = Tier(*wq, GetParam());
  TrajectoryParams params;
  params.steps = 50;  // a discard of 5: quanta of 7 split it and the runs
  params.runs = 4;
  ExpectQuantumInvariant([&] {
    return std::make_unique<ResumableTrajectory>(
        Kernel(*wq), wq->initial, gadgets::WalkAtNode(1),
        compiled, params, Rng(6));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, ResumableTierTest,
    ::testing::Values(Backend::kInterpreted, Backend::kCompiled));

}  // namespace
}  // namespace eval
}  // namespace pfql
