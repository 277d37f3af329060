// Experiment A2 (ablation): stationary-distribution solvers on dense random
// chains — double Gaussian elimination (cubic, exact to FP) vs the compiled
// chain's sparse power iteration on the lazy chain (edges per step,
// geometric convergence, over 1/65535-quantized rows) vs the exact
// BigRational solve used by the exact query engines.
#include <benchmark/benchmark.h>

#include "markov/compiled_chain.h"
#include "markov/markov_chain.h"
#include "util/random.h"

namespace pfql {
namespace {

MarkovChain RandomDenseChain(size_t n, uint64_t seed) {
  Rng rng(seed);
  MarkovChain mc(n);
  for (size_t i = 0; i < n; ++i) {
    // Integer weights 1..8 per entry, normalized exactly.
    std::vector<int64_t> w(n);
    int64_t total = 0;
    for (size_t j = 0; j < n; ++j) {
      w[j] = 1 + static_cast<int64_t>(rng.NextIndex(8));
      total += w[j];
    }
    for (size_t j = 0; j < n; ++j) {
      Status st = mc.AddTransition(i, j, BigRational(w[j], total));
      if (!st.ok()) std::abort();
    }
  }
  return mc;
}

void BM_StationaryGaussian(benchmark::State& state) {
  MarkovChain mc = RandomDenseChain(state.range(0), 7);
  for (auto _ : state) {
    auto pi = mc.StationaryDistribution();
    if (!pi.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(pi);
  }
}
BENCHMARK(BM_StationaryGaussian)->RangeMultiplier(2)->Range(4, 256);

void BM_StationaryPowerIteration(benchmark::State& state) {
  MarkovChain mc = RandomDenseChain(state.range(0), 7);
  auto compiled = CompiledChain::Compile(
      mc, std::vector<uint64_t>(mc.num_states(), 0));
  if (!compiled.ok()) std::abort();
  for (auto _ : state) {
    auto pi = compiled->Stationary(100000, 1e-10);
    if (!pi.ok()) state.SkipWithError("iteration failed");
    benchmark::DoNotOptimize(pi);
  }
}
BENCHMARK(BM_StationaryPowerIteration)->RangeMultiplier(2)->Range(4, 256);

void BM_StationaryExactRational(benchmark::State& state) {
  MarkovChain mc = RandomDenseChain(state.range(0), 7);
  for (auto _ : state) {
    auto pi = mc.ExactStationaryDistribution();
    if (!pi.ok()) state.SkipWithError("exact solve failed");
    benchmark::DoNotOptimize(pi);
  }
}
BENCHMARK(BM_StationaryExactRational)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_AbsorptionProbabilities(benchmark::State& state) {
  // Transient line feeding two absorbing states.
  const size_t n = static_cast<size_t>(state.range(0));
  MarkovChain mc(n + 2);
  for (size_t i = 0; i < n; ++i) {
    Status s1 = mc.AddTransition(i, i + 1 < n ? i + 1 : n, BigRational(1, 2));
    Status s2 = mc.AddTransition(i, n + 1, BigRational(1, 2));
    if (!s1.ok() || !s2.ok()) std::abort();
  }
  Status s3 = mc.AddTransition(n, n, BigRational(1));
  Status s4 = mc.AddTransition(n + 1, n + 1, BigRational(1));
  if (!s3.ok() || !s4.ok()) std::abort();
  for (auto _ : state) {
    auto absorb = mc.AbsorptionProbabilities(0);
    if (!absorb.ok()) state.SkipWithError("absorption failed");
    benchmark::DoNotOptimize(absorb);
  }
}
BENCHMARK(BM_AbsorptionProbabilities)->RangeMultiplier(2)->Range(4, 128);

void BM_MixingTimeLazyCycle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  MarkovChain mc(n);
  for (size_t i = 0; i < n; ++i) {
    Status s1 = mc.AddTransition(i, i, BigRational(1, 2));
    Status s2 = mc.AddTransition(i, (i + 1) % n, BigRational(1, 2));
    if (!s1.ok() || !s2.ok()) std::abort();
  }
  size_t t = 0;
  for (auto _ : state) {
    auto mix = mc.MixingTimeFrom(0, 0.05, 1 << 20);
    if (!mix.ok()) state.SkipWithError("mixing failed");
    t = *mix;
    benchmark::DoNotOptimize(mix);
  }
  state.counters["t_mix"] = static_cast<double>(t);
}
BENCHMARK(BM_MixingTimeLazyCycle)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
}  // namespace pfql

BENCHMARK_MAIN();
