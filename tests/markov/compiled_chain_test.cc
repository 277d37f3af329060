#include "markov/compiled_chain.h"

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "gadgets/graphs.h"
#include "markov/markov_chain.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace pfql {
namespace {

constexpr uint32_t kScale = CompiledChain::kProbScale;

std::vector<uint64_t> Hashes(size_t n) {
  std::vector<uint64_t> hashes(n);
  for (size_t i = 0; i < n; ++i) hashes[i] = 0x9e3779b97f4a7c15ull * (i + 1);
  return hashes;
}

// Two-state ergodic chain: 0 stays w.p. 2/3; 1 -> 0 w.p. 1/2.
MarkovChain TwoState() {
  MarkovChain mc(2);
  EXPECT_TRUE(mc.AddTransition(0, 0, BigRational(2, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 1, BigRational(1, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 0, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 1, BigRational(1, 2)).ok());
  return mc;
}

// Row 0 splits 1/7, 2/7, 4/7 — none representable exactly in 1/65535
// units, so this row exercises the largest-remainder rounding.
MarkovChain Sevenths() {
  MarkovChain mc(3);
  EXPECT_TRUE(mc.AddTransition(0, 0, BigRational(1, 7)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 1, BigRational(2, 7)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 2, BigRational(4, 7)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 0, BigRational(1, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 1, BigRational(2, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(2, 2, BigRational(1)).ok());
  return mc;
}

// 0 -> {1, 2} each w.p. 1/2; 1 and 2 absorbing self-loops.
MarkovChain Absorbing() {
  MarkovChain mc(3);
  EXPECT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 2, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 1, BigRational(1)).ok());
  EXPECT_TRUE(mc.AddTransition(2, 2, BigRational(1)).ok());
  return mc;
}

TEST(CompiledChainTest, RowsSumExactlyToScale) {
  for (const MarkovChain& mc : {TwoState(), Sevenths(), Absorbing()}) {
    auto compiled = CompiledChain::Compile(mc, Hashes(mc.num_states()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    for (size_t s = 0; s < compiled->num_states(); ++s) {
      uint64_t sum = 0;
      for (uint32_t e = compiled->RowBegin(s); e < compiled->RowEnd(s); ++e) {
        sum += compiled->ProbQ(e);
      }
      EXPECT_EQ(sum, kScale) << "row " << s;
    }
  }
}

TEST(CompiledChainTest, QuantizationErrorBelowOneUnit) {
  MarkovChain mc = Sevenths();
  auto compiled = CompiledChain::Compile(mc, Hashes(3));
  ASSERT_TRUE(compiled.ok());
  for (size_t s = 0; s < 3; ++s) {
    std::map<size_t, double> exact;
    for (const auto& [to, p] : mc.Row(s)) exact[to] = p.ToDouble();
    for (uint32_t e = compiled->RowBegin(s); e < compiled->RowEnd(s); ++e) {
      const double q = static_cast<double>(compiled->ProbQ(e)) / kScale;
      EXPECT_LT(std::abs(q - exact[compiled->Col(e)]), 1.0 / kScale);
    }
  }
}

// The alias table is a relabelling of the quantized row: enumerating every
// (slot, threshold) pair must select each successor exactly ProbQ * k
// times, where k is the row width. This is the exactness property the
// single-draw Step() relies on.
TEST(CompiledChainTest, AliasTableEnumeratesToQuantizedRow) {
  for (const MarkovChain& mc : {TwoState(), Sevenths()}) {
    auto compiled = CompiledChain::Compile(mc, Hashes(mc.num_states()));
    ASSERT_TRUE(compiled.ok());
    for (size_t s = 0; s < compiled->num_states(); ++s) {
      const uint32_t begin = compiled->RowBegin(s);
      const uint32_t k = compiled->RowEnd(s) - begin;
      std::map<uint32_t, uint64_t> counts;
      for (uint32_t slot = 0; slot < k; ++slot) {
        const uint32_t e = begin + slot;
        for (uint32_t t = 0; t < kScale; ++t) {
          ++counts[t < compiled->AliasCut(e) ? compiled->Col(e)
                                             : compiled->AliasState(e)];
        }
      }
      std::map<uint32_t, uint64_t> expected;
      for (uint32_t e = begin; e < begin + k; ++e) {
        expected[compiled->Col(e)] +=
            static_cast<uint64_t>(compiled->ProbQ(e)) * k;
      }
      EXPECT_EQ(counts, expected) << "row " << s;
    }
  }
}

TEST(CompiledChainTest, DegenerateAndAbsorbingRows) {
  auto compiled = CompiledChain::Compile(Absorbing(), Hashes(3));
  ASSERT_TRUE(compiled.ok());
  // Absorbing rows compile to one full-scale entry whose alias branch is
  // unreachable (cut == kScale while thresholds stop at kScale - 1).
  for (size_t s : {size_t{1}, size_t{2}}) {
    ASSERT_EQ(compiled->RowEnd(s) - compiled->RowBegin(s), 1u);
    const uint32_t e = compiled->RowBegin(s);
    EXPECT_EQ(compiled->Col(e), s);
    EXPECT_EQ(compiled->ProbQ(e), kScale);
    EXPECT_EQ(compiled->AliasCut(e), kScale);
  }
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(compiled->Step(1, &rng), 1u);
    EXPECT_EQ(compiled->Step(2, &rng), 2u);
  }
}

TEST(CompiledChainTest, ZeroProbabilityEntriesAreDropped) {
  MarkovChain mc(2);
  ASSERT_TRUE(mc.AddTransition(0, 0, BigRational(1)).ok());
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(0)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 1, BigRational(1)).ok());
  auto compiled = CompiledChain::Compile(mc, Hashes(2));
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->num_edges(), 2u);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(compiled->Step(0, &rng), 0u);
}

TEST(CompiledChainTest, CompileRejectsNonStochasticChain) {
  MarkovChain mc(2);
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 1, BigRational(1)).ok());
  EXPECT_FALSE(CompiledChain::Compile(mc, Hashes(2)).ok());
  EXPECT_FALSE(CompiledChain::Compile(TwoState(), Hashes(3)).ok());
}

TEST(CompiledChainTest, StepBatchIsDeterministicAndInRange) {
  auto compiled = CompiledChain::Compile(Sevenths(), Hashes(3));
  ASSERT_TRUE(compiled.ok());
  std::vector<uint32_t> a(64, 0), b(64, 0);
  Rng rng_a(42), rng_b(42);
  ASSERT_TRUE(compiled->StepBatch(&a, 100, &rng_a).ok());
  ASSERT_TRUE(compiled->StepBatch(&b, 100, &rng_b).ok());
  EXPECT_EQ(a, b);
  for (uint32_t w : a) EXPECT_LT(w, compiled->num_states());
}

TEST(CompiledChainTest, StepBatchValidatesWalkers) {
  auto compiled = CompiledChain::Compile(TwoState(), Hashes(2));
  ASSERT_TRUE(compiled.ok());
  Rng rng(1);
  std::vector<uint32_t> bad = {0, 5};
  EXPECT_FALSE(compiled->StepBatch(&bad, 1, &rng).ok());
  EXPECT_FALSE(compiled->StepBatch(nullptr, 1, &rng).ok());
}

TEST(CompiledChainTest, StepBatchHonorsCancellation) {
  auto compiled = CompiledChain::Compile(TwoState(), Hashes(2));
  ASSERT_TRUE(compiled.ok());
  CancellationToken token;
  token.Cancel();
  Rng rng(1);
  std::vector<uint32_t> walkers(4, 0);
  Status status = compiled->StepBatch(&walkers, 1 << 20, &rng, &token);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

TEST(CompiledChainTest, StationaryMatchesExactSolver) {
  MarkovChain mc = TwoState();
  auto compiled = CompiledChain::Compile(mc, Hashes(2));
  ASSERT_TRUE(compiled.ok());
  auto exact = mc.StationaryDistribution();
  ASSERT_TRUE(exact.ok());
  auto iterated = compiled->Stationary(10000, 1e-10);
  ASSERT_TRUE(iterated.ok()) << iterated.status().ToString();
  ASSERT_EQ(iterated->pi.size(), exact->size());
  for (size_t s = 0; s < exact->size(); ++s) {
    // Quantization perturbs the chain by < 1/kProbScale per entry; the
    // stationary vector moves by the same order.
    EXPECT_NEAR(iterated->pi[s], (*exact)[s], 1e-4);
  }
  EXPECT_LE(iterated->residual, 1e-10);
  EXPECT_GT(iterated->iterations, 0u);
}

TEST(CompiledChainTest, StationaryReportsNonConvergence) {
  auto compiled = CompiledChain::Compile(TwoState(), Hashes(2));
  ASSERT_TRUE(compiled.ok());
  auto result = compiled->Stationary(1, 1e-15);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(CompiledChainTest, StructuralHashSeparatesChains) {
  auto a = CompiledChain::Compile(TwoState(), Hashes(2));
  auto b = CompiledChain::Compile(TwoState(), Hashes(2));
  auto c = CompiledChain::Compile(Sevenths(), Hashes(3));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->structural_hash(), b->structural_hash());
  EXPECT_NE(a->structural_hash(), c->structural_hash());
}

TEST(CompiledChainTest, GetOrCompileMemoizesByFingerprintAndChain) {
  auto walk = gadgets::RandomWalkQuery(gadgets::Complete(3), 0);
  ASSERT_TRUE(walk.ok());
  auto& cache = CompiledChainCache::Instance();
  cache.Clear();

  CompileOptions options;
  auto first = GetOrCompile(walk->kernel, walk->initial, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // Same kernel + budget: answered at the fingerprint front door.
  auto second = GetOrCompile(walk->kernel, walk->initial, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(cache.GetStats().fingerprint_hits, 1u);

  // Different budget changes the fingerprint but enumerates the same
  // chain, so the structural hash dedupes the compile.
  CompileOptions wider = options;
  wider.max_states = options.max_states * 2;
  auto third = GetOrCompile(walk->kernel, walk->initial, wider);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(cache.GetStats().chain_hits, 1u);
  EXPECT_EQ((*third)->chain.structural_hash(),
            (*first)->chain.structural_hash());

  // And the re-keyed fingerprint is now a front-door hit too.
  auto fourth = GetOrCompile(walk->kernel, walk->initial, wider);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(cache.GetStats().fingerprint_hits, 2u);
  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(CompiledChainTest, GetOrCompileSurfacesBudgetOverrun) {
  auto walk = gadgets::RandomWalkQuery(gadgets::Complete(4), 0);
  ASSERT_TRUE(walk.ok());
  CompiledChainCache::Instance().Clear();
  CompileOptions options;
  options.max_states = 1;
  auto result = GetOrCompile(walk->kernel, walk->initial, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(CompiledChainTest, KernelFingerprintDependsOnInputs) {
  auto a = gadgets::RandomWalkQuery(gadgets::Complete(3), 0);
  auto b = gadgets::RandomWalkQuery(gadgets::Complete(3), 1);
  ASSERT_TRUE(a.ok() && b.ok());
  const uint64_t fp = KernelFingerprint(a->kernel, a->initial, 4096);
  EXPECT_EQ(fp, KernelFingerprint(a->kernel, a->initial, 4096));
  EXPECT_NE(fp, KernelFingerprint(b->kernel, b->initial, 4096));
  EXPECT_NE(fp, KernelFingerprint(a->kernel, a->initial, 8192));
}

}  // namespace
}  // namespace pfql
