#include "markov/compiled_chain.h"

#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/program.h"
#include "datalog/translate.h"
#include "gadgets/graphs.h"
#include "markov/markov_chain.h"
#include "markov/test_chains.h"
#include "relational/text_io.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace pfql {
namespace {

constexpr uint32_t kScale = CompiledChain::kProbScale;

// Two-state ergodic chain: 0 stays w.p. 2/3; 1 -> 0 w.p. 1/2.
MarkovChain TwoState() {
  return Chain({{{0, BigRational(2, 3)}, {1, BigRational(1, 3)}},
                {{0, BigRational(1, 2)}, {1, BigRational(1, 2)}}});
}

// Row 0 splits 1/7, 2/7, 4/7 — none representable exactly in 1/65535
// units, so this row exercises the largest-remainder rounding.
MarkovChain Sevenths() {
  return Chain(
      {{{0, BigRational(1, 7)}, {1, BigRational(2, 7)}, {2, BigRational(4, 7)}},
       {{0, BigRational(1, 3)}, {1, BigRational(2, 3)}},
       {{2, BigRational(1)}}});
}

// 0 -> {1, 2} each w.p. 1/2; 1 and 2 absorbing self-loops.
MarkovChain Absorbing() {
  return Chain({{{1, BigRational(1, 2)}, {2, BigRational(1, 2)}},
                {{1, BigRational(1)}},
                {{2, BigRational(1)}}});
}

TEST(CompiledChainTest, RowsSumExactlyToScale) {
  for (const MarkovChain& mc : {TwoState(), Sevenths(), Absorbing()}) {
    auto compiled = CompiledChain::Compile(mc);
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
  auto compiled = CompiledChain::Compile(mc);
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
    auto compiled = CompiledChain::Compile(mc);
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
  auto compiled = CompiledChain::Compile(Absorbing());
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
  const MarkovChain mc = Chain(
      {{{0, BigRational(1)}, {1, BigRational(0)}}, {{1, BigRational(1)}}});
  auto compiled = CompiledChain::Compile(mc);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->num_edges(), 2u);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(compiled->Step(0, &rng), 0u);
}

// A non-stochastic chain never reaches Compile: FromRows, the only way to
// build a non-empty MarkovChain, refuses rows that do not sum to 1. The one
// chain built without it, the empty chain, compiles to no states.
TEST(CompiledChainTest, CompileRejectsNonStochasticChain) {
  auto under = MarkovChain::FromRows(
      {{{1, BigRational(1, 2)}}, {{1, BigRational(1)}}});
  EXPECT_EQ(under.status().code(), StatusCode::kInvalidArgument);
  auto over = MarkovChain::FromRows(
      {{{0, BigRational(1, 2)}, {1, BigRational(2, 3)}},
       {{1, BigRational(1)}}});
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  auto empty = CompiledChain::Compile(MarkovChain());
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->num_states(), 0u);
  EXPECT_EQ(empty->num_edges(), 0u);
}

TEST(CompiledChainTest, StepBatchIsDeterministicAndInRange) {
  auto compiled = CompiledChain::Compile(Sevenths());
  ASSERT_TRUE(compiled.ok());
  std::vector<uint32_t> a(64, 0), b(64, 0);
  Rng rng_a(42), rng_b(42);
  ASSERT_TRUE(compiled->StepBatch(&a, 100, &rng_a).ok());
  ASSERT_TRUE(compiled->StepBatch(&b, 100, &rng_b).ok());
  EXPECT_EQ(a, b);
  for (uint32_t w : a) EXPECT_LT(w, compiled->num_states());
}

TEST(CompiledChainTest, StepBatchValidatesWalkers) {
  auto compiled = CompiledChain::Compile(TwoState());
  ASSERT_TRUE(compiled.ok());
  Rng rng(1);
  std::vector<uint32_t> bad = {0, 5};
  EXPECT_FALSE(compiled->StepBatch(&bad, 1, &rng).ok());
  EXPECT_FALSE(compiled->StepBatch(nullptr, 1, &rng).ok());
}

TEST(CompiledChainTest, StepBatchHonorsCancellation) {
  auto compiled = CompiledChain::Compile(TwoState());
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
  auto compiled = CompiledChain::Compile(mc);
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
  auto compiled = CompiledChain::Compile(TwoState());
  ASSERT_TRUE(compiled.ok());
  auto result = compiled->Stationary(1, 1e-15);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(CompiledChainTest, GetOrCompileMemoizesByFingerprint) {
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
  EXPECT_EQ((*first)->states.size(), (*first)->chain.num_states());

  // Same kernel + budget: answered at the fingerprint front door.
  auto second = GetOrCompile(walk->kernel, walk->initial, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(cache.GetStats().fingerprint_hits, 1u);

  // A different budget is a different key: it compiles anew, to the same
  // chain.
  CompileOptions wider = options;
  wider.max_states = options.max_states * 2;
  auto third = GetOrCompile(walk->kernel, walk->initial, wider);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first->get(), third->get());
  stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ((*third)->chain.num_edges(), (*first)->chain.num_edges());

  // And it is a front-door hit from then on.
  auto fourth = GetOrCompile(walk->kernel, walk->initial, wider);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(third->get(), fourth->get());
  EXPECT_EQ(cache.GetStats().fingerprint_hits, 2u);
  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(CompiledChainTest, GetOrCompileEvictsTheLeastRecentlyUsedKernel) {
  auto& cache = CompiledChainCache::Instance();
  cache.Clear();
  std::vector<gadgets::WalkQuery> walks;
  for (int64_t n = 2; n <= 2 + int64_t{CompiledChainCache::kCapacity}; ++n) {
    auto walk = gadgets::RandomWalkQuery(gadgets::Cycle(n), 0);
    ASSERT_TRUE(walk.ok());
    walks.push_back(std::move(walk).value());
  }
  auto compile = [&](size_t i) {
    auto compiled = GetOrCompile(walks[i].kernel, walks[i].initial);
    EXPECT_TRUE(compiled.ok()) << compiled.status();
  };
  for (size_t i = 0; i < CompiledChainCache::kCapacity; ++i) compile(i);
  EXPECT_EQ(cache.GetStats().entries, CompiledChainCache::kCapacity);
  compile(0);  // kernel 0 is now the most recently used; kernel 1 the least
  EXPECT_EQ(cache.GetStats().fingerprint_hits, 1u);

  compile(CompiledChainCache::kCapacity);  // the 33rd kernel evicts kernel 1
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, CompiledChainCache::kCapacity);
  EXPECT_EQ(stats.misses, CompiledChainCache::kCapacity + 1);
  compile(0);
  EXPECT_EQ(cache.GetStats().fingerprint_hits, 2u);
  compile(1);
  EXPECT_EQ(cache.GetStats().misses, CompiledChainCache::kCapacity + 2);
  cache.Clear();
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

// The compile memo keys on the kernel's printed text, which must keep every
// digit of a double constant: two kernels that differ only in 0.1234567
// against 0.1234568 once shared one key, and the second was served the
// first's chain, whose states hold the other constant.
TEST(CompiledChainTest, KernelFingerprintKeepsEveryDigitOfADouble) {
  auto ring = ParseInstanceText(
      "relation one(k) {\n  (0)\n}\n"
      "relation e(i, j, p) {\n  (0, 1, 1)\n  (0, 2, 1)\n  (1, 2, 1)\n"
      "  (1, 0, 1)\n  (2, 0, 1)\n  (2, 1, 1)\n}\n");
  ASSERT_TRUE(ring.ok()) << ring.status();
  auto& cache = CompiledChainCache::Instance();
  cache.Clear();
  constexpr char kWalk[] =
      "cur(0).\n"
      "mv(<K>, Y) @P :- one(K), cur(X), e(X, Y, P).\n"
      "cur(Y) :- mv(K, Y).\n";
  std::vector<uint64_t> fingerprints;
  for (const auto& [c, literal] : {std::pair{0.1234567, "0.1234567"},
                                   std::pair{0.1234568, "0.1234568"}}) {
    const std::string text =
        std::string(kWalk) + "hit(" + literal + ") :- cur(1).\n";
    auto program = datalog::ParseProgram(text);
    ASSERT_TRUE(program.ok()) << program.status();
    auto tq = datalog::TranslateNonInflationary(*program, *ring);
    ASSERT_TRUE(tq.ok()) << tq.status();
    fingerprints.push_back(KernelFingerprint(tq->kernel, tq->initial, 4096));
    auto compiled = GetOrCompile(tq->kernel, tq->initial);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const QueryEvent hit{"hit", Tuple{Value(c)}};
    size_t hits = 0;
    for (const Instance& state : (*compiled)->states) hits += hit.Holds(state);
    EXPECT_GT(hits, 0u) << text;
  }
  EXPECT_NE(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(cache.GetStats().misses, 2u);
  EXPECT_EQ(cache.GetStats().fingerprint_hits, 0u);
  cache.Clear();
}

}  // namespace
}  // namespace pfql
