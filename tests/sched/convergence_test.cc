// Split-R̂ diagnostic tests: synthetic chain streams with known answers,
// plus the differential test against a known-slow-mixing (frozen two-lobe)
// chain run through the real persistent-chain MCMC sampler — the fast
// mixer reads R̂ ≈ 1, the stuck one pins the ceiling.
#include "sched/convergence.h"

#include <gtest/gtest.h>

#include <vector>

#include "eval/resumable.h"
#include "gadgets/graphs.h"

namespace pfql {
namespace sched {
namespace {

// Builds one chain's cumulative tallies from an explicit indicator stream,
// checkpointing every `every` samples (as RunQuantum does per quantum).
eval::ChainStats FromStream(const std::vector<int>& stream, size_t every) {
  eval::ChainStats chain;
  for (int x : stream) {
    ++chain.count;
    chain.sum += x;
    if (chain.count % every == 0) {
      chain.checkpoints.emplace_back(chain.count, chain.sum);
    }
  }
  if (chain.checkpoints.empty() ||
      chain.checkpoints.back().first != chain.count) {
    chain.checkpoints.emplace_back(chain.count, chain.sum);
  }
  return chain;
}

std::vector<int> Alternating(size_t n, int first) {
  std::vector<int> stream(n);
  for (size_t i = 0; i < n; ++i) stream[i] = (i % 2 == 0) ? first : 1 - first;
  return stream;
}

TEST(SplitRhatTest, InvalidUntilSegmentsHaveEnoughSamples) {
  // min_segment = 8 means each chain must contribute two segments of >= 8:
  // 15 samples per chain cannot split that way.
  std::vector<eval::ChainStats> chains = {
      FromStream(Alternating(15, 0), 4), FromStream(Alternating(15, 1), 4)};
  const ConvergenceResult r = SplitRhat(chains, 0.05, 8);
  EXPECT_FALSE(r.valid);

  // One chain is never diagnosable, however long.
  std::vector<eval::ChainStats> one = {FromStream(Alternating(256, 0), 16)};
  EXPECT_FALSE(SplitRhat(one, 0.05).valid);
}

TEST(SplitRhatTest, AgreeingChainsReadNearOne) {
  // Four chains, each a fair alternating indicator stream: every split
  // segment has mean 1/2, so between-chain variance is ~0 and R̂ -> 1.
  std::vector<eval::ChainStats> chains;
  for (int c = 0; c < 4; ++c) {
    chains.push_back(FromStream(Alternating(128, c % 2), 16));
  }
  const ConvergenceResult r = SplitRhat(chains, 0.05);
  ASSERT_TRUE(r.valid);
  // With between-variance ~0, R̂ ≈ sqrt((n̄-1)/n̄) — slightly *below* 1 by
  // the finite-segment correction, never above the 1.05 threshold.
  EXPECT_GT(r.rhat, 0.98);
  EXPECT_LT(r.rhat, 1.01);
  EXPECT_EQ(r.pooled_count, 4u * 128u);
  EXPECT_NEAR(r.pooled_mean, 0.5, 1e-9);
}

TEST(SplitRhatTest, FrozenDisagreementPinsCeiling) {
  // One chain frozen at 1, one frozen at 0: zero within-variance, positive
  // between-variance — the worst case reads the clamped ceiling, not NaN.
  std::vector<eval::ChainStats> chains = {
      FromStream(std::vector<int>(64, 1), 16),
      FromStream(std::vector<int>(64, 0), 16)};
  const ConvergenceResult r = SplitRhat(chains, 0.05);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.rhat, kRhatCeiling);
  EXPECT_NEAR(r.pooled_mean, 0.5, 1e-9);
  EXPECT_GT(r.ci_halfwidth, 0.0);
}

TEST(SplitRhatTest, DisagreementWidensCiOverPooledAgreement) {
  // Same pooled mean and count; the disagreeing pair must report a wider
  // CI than the agreeing pair — that widening is what keeps an unconverged
  // MCMC subscription prioritized by the scheduler.
  std::vector<eval::ChainStats> agree = {FromStream(Alternating(256, 0), 16),
                                         FromStream(Alternating(256, 1), 16)};
  std::vector<eval::ChainStats> disagree = {
      FromStream(std::vector<int>(256, 1), 16),
      FromStream(std::vector<int>(256, 0), 16)};
  const ConvergenceResult a = SplitRhat(agree, 0.05);
  const ConvergenceResult d = SplitRhat(disagree, 0.05);
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(d.valid);
  EXPECT_NEAR(a.pooled_mean, d.pooled_mean, 1e-9);
  EXPECT_GT(d.ci_halfwidth, a.ci_halfwidth);
}

// ---- Differential: real sampler on fast- vs slow-mixing kernels --------

eval::ResumableMcmcChains MakeWalkSampler(const gadgets::Graph& graph,
                                          int64_t event_node,
                                          size_t num_chains, size_t burn_in,
                                          size_t max_samples,
                                          uint64_t seed) {
  auto wq = gadgets::RandomWalkQuery(graph, 0);
  EXPECT_TRUE(wq.ok()) << wq.status();
  auto compiled = eval::CompileOrFallBack(wq->kernel, wq->initial,
                                          eval::Backend::kAuto, 1 << 12,
                                          nullptr);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  auto kernel = wq->kernel.Compile(wq->initial);
  EXPECT_TRUE(kernel.ok()) << kernel.status();
  eval::McmcParams params;
  params.burn_in = burn_in;
  params.max_samples = max_samples;
  return eval::ResumableMcmcChains(*kernel, wq->initial,
                                   gadgets::WalkAtNode(event_node), *compiled,
                                   params, num_chains, Rng(seed));
}

void RunToExhaustion(eval::ResumableMcmcChains* sampler) {
  while (!sampler->Exhausted()) {
    ASSERT_TRUE(sampler->RunQuantum(256, nullptr).ok());
  }
}

TEST(SplitRhatDifferentialTest, FastMixingCompleteGraphConverges) {
  // Complete(4) mixes in one step; four chains agree almost immediately
  // and the pooled estimate recovers the uniform stationary mass 1/4.
  eval::ResumableMcmcChains sampler =
      MakeWalkSampler(gadgets::Complete(4), 2, 4, 10, 4096, 7);
  RunToExhaustion(&sampler);
  const ConvergenceResult r = SplitRhat(sampler.chains(), 0.05);
  ASSERT_TRUE(r.valid);
  EXPECT_LT(r.rhat, 1.05);
  EXPECT_NEAR(r.pooled_mean, 0.25, 0.05);
}

TEST(SplitRhatDifferentialTest, FrozenTwoLobeChainFlagsNonConvergence) {
  // From node 0 the walk takes one 50/50 step into lobe 1 or lobe 2 and is
  // absorbed — the extreme slow mixer. Individual chains look perfectly
  // converged (constant indicator stream); only cross-chain comparison can
  // tell, and with chains absorbed in both lobes R̂ pins the ceiling while
  // the per-chain Hoeffding CI would have claimed high confidence.
  gadgets::Graph lobes;
  lobes.num_nodes = 3;
  lobes.edges = {{0, 1, 1.0}, {0, 2, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}};
  eval::ResumableMcmcChains sampler = MakeWalkSampler(lobes, 2, 4, 2, 2048, 5);
  RunToExhaustion(&sampler);

  // The seed must land chains in both lobes for the diagnostic to have
  // signal; verify the premise explicitly so a future RNG change fails
  // loudly here rather than silently weakening the assertion.
  bool saw_lobe1 = false;
  bool saw_lobe2 = false;
  for (const eval::ChainStats& chain : sampler.chains()) {
    if (chain.sum == 0.0) saw_lobe1 = true;
    if (chain.sum == static_cast<double>(chain.count)) saw_lobe2 = true;
  }
  ASSERT_TRUE(saw_lobe1 && saw_lobe2)
      << "seed landed every chain in one lobe; pick another seed";

  const ConvergenceResult r = SplitRhat(sampler.chains(), 0.05);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.rhat, kRhatCeiling);
  // Each frozen chain alone has zero empirical variance; only pooling
  // exposes the cross-chain disagreement as a nonzero variance bound. The
  // ceiling R̂ above — not the CI — is what withholds convergence.
  EXPECT_GT(r.ci_halfwidth, 0.0);
}

}  // namespace
}  // namespace sched
}  // namespace pfql
