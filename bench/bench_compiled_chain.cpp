// Compiled-chain tier benchmark: measures what the PR6 fast path buys.
//   (a) compile cost: cold GetOrCompile (state-space BFS + quantization +
//       alias tables) vs a memo-cache hit;
//   (b) stepping throughput: interpreted kernel.ApplySample walking vs
//       compiled StepBatch at 1/4/8 threads, in steps/second;
//   (c) stationary convergence: the compiled power iteration vs the exact
//       markov/matrix solver (iterations, residual, max abs deviation).
// Emits BENCH_pr6.json next to the human-readable table and exits
// non-zero if the compiled tier fails to beat the interpreted one — the
// CI perf-smoke gate.
//
//   bench_compiled_chain [nodes] [interpreted_steps] [compiled_steps]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "gadgets/graphs.h"
#include "markov/compiled_chain.h"
#include "util/json.h"
#include "util/random.h"

using namespace pfql;

namespace {

// Steps/second of compiled batched walking with `threads` workers, each
// advancing its own walker slice with a forked RNG stream.
double CompiledStepsPerSec(const CompiledChain& chain, size_t threads,
                           size_t walkers_per_thread, size_t steps,
                           Rng* rng) {
  std::vector<Rng> rngs;
  rngs.reserve(threads);
  for (size_t t = 0; t < threads; ++t) rngs.push_back(rng->Fork());
  std::vector<Status> statuses(threads, Status::OK());
  const double ms = bench::TimeMs([&] {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        std::vector<uint32_t> walkers(walkers_per_thread, 0);
        statuses[t] = chain.StepBatch(&walkers, steps, &rngs[t]);
      });
    }
    for (auto& worker : pool) worker.join();
  });
  for (const Status& status : statuses) {
    if (!status.ok()) {
      std::fprintf(stderr, "bench_compiled_chain: StepBatch failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  const double total =
      static_cast<double>(threads) * walkers_per_thread * steps;
  return ms > 0 ? total * 1000.0 / ms : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t nodes = argc > 1 ? std::atoll(argv[1]) : 256;
  const size_t interpreted_steps =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20000;
  const size_t compiled_steps =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4000;

  // Lazy torus grid: every state has 5 outgoing edges, so one interpreted
  // step is a full repair-key interpretation over the cursor join.
  const int64_t side = std::max<int64_t>(
      2, static_cast<int64_t>(std::llround(std::sqrt(
             static_cast<double>(nodes)))));
  auto walk = gadgets::RandomWalkQuery(gadgets::Grid(side, side, true), 0);
  if (!walk.ok()) {
    std::fprintf(stderr, "bench_compiled_chain: %s\n",
                 walk.status().ToString().c_str());
    return 1;
  }

  Json report = Json::Object();
  report.Set("bench", "compiled_chain");
  report.Set("states", side * side);

  // (a) Compile cost: cold vs memo hit.
  CompileOptions options;
  options.max_states = static_cast<size_t>(side * side) * 2;
  CompiledChainCache::Instance().Clear();
  std::shared_ptr<const CompiledSpace> compiled;
  const double cold_ms = bench::TimeMs([&] {
    auto result = GetOrCompile(walk->kernel, walk->initial, options);
    if (!result.ok()) {
      std::fprintf(stderr, "bench_compiled_chain: compile failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    compiled = *result;
  });
  constexpr int kHits = 1000;
  const double hits_ms = bench::TimeMs([&] {
    for (int i = 0; i < kHits; ++i) {
      auto hit = GetOrCompile(walk->kernel, walk->initial, options);
      if (!hit.ok()) std::exit(1);
    }
  });
  const double hit_us = hits_ms * 1000.0 / kHits;
  bench::PrintRow({"compile", "cold_ms", bench::Fmt(cold_ms), "memo_us",
                   bench::Fmt(hit_us)});
  Json compile = Json::Object();
  compile.Set("states", static_cast<int64_t>(compiled->chain.num_states()));
  compile.Set("edges", static_cast<int64_t>(compiled->chain.num_edges()));
  compile.Set("cold_ms", cold_ms);
  compile.Set("memo_hit_us", hit_us);
  report.Set("compile", std::move(compile));

  // (b) Stepping throughput, interpreted baseline first: a single walker
  // advanced by the compiled kernel's Step (exactly what the interpreted
  // samplers do per step).
  auto kernel = walk->kernel.Compile(walk->initial);
  if (!kernel.ok()) {
    std::fprintf(stderr, "bench_compiled_chain: %s\n",
                 kernel.status().ToString().c_str());
    std::exit(1);
  }
  Rng rng(42);
  Instance state = walk->initial;
  size_t done = 0;
  const double interp_ms = bench::TimeMs([&] {
    for (size_t i = 0; i < interpreted_steps; ++i) {
      if (!(*kernel)->Step(&state, &rng).ok()) {
        std::fprintf(stderr, "bench_compiled_chain: kernel step failed\n");
        std::exit(1);
      }
      ++done;
    }
  });
  const double interp_sps =
      interp_ms > 0 ? static_cast<double>(done) * 1000.0 / interp_ms : 0.0;
  bench::PrintRow({"interpreted", "threads", "1", "steps/sec",
                   bench::Fmt(interp_sps, 0)});
  Json stepping = Json::Object();
  stepping.Set("interpreted_steps_per_sec", interp_sps);

  // Compiled: 256 walkers per thread so the alias draws stay hot; total
  // work scales with the thread count, wall time should not.
  constexpr size_t kWalkersPerThread = 256;
  double compiled_sps_1 = 0.0;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    const double sps = CompiledStepsPerSec(compiled->chain, threads,
                                           kWalkersPerThread,
                                           compiled_steps, &rng);
    if (threads == 1) compiled_sps_1 = sps;
    bench::PrintRow({"compiled", "threads", bench::FmtInt(threads),
                     "steps/sec", bench::Fmt(sps, 0), "speedup",
                     bench::Fmt(interp_sps > 0 ? sps / interp_sps : 0.0, 1)});
    stepping.Set("compiled_steps_per_sec_t" + std::to_string(threads), sps);
  }
  stepping.Set("speedup_t1",
               interp_sps > 0 ? compiled_sps_1 / interp_sps : 0.0);
  report.Set("stepping", std::move(stepping));

  // (c) Stationary convergence: compiled power iteration vs exact solver.
  // The torus grid is doubly stochastic (uniform is trivially stationary),
  // so this section uses a star walk instead — its stationary mass is
  // heavily skewed toward the hub and the iteration has to work for it.
  Json stationary = Json::Object();
  {
    auto star_walk = gadgets::RandomWalkQuery(gadgets::Star(nodes), 0);
    if (!star_walk.ok()) {
      std::fprintf(stderr, "bench_compiled_chain: star fixture failed\n");
      return 1;
    }
    auto star = GetOrCompile(star_walk->kernel, star_walk->initial, options);
    if (!star.ok()) {
      std::fprintf(stderr, "bench_compiled_chain: star compile failed: %s\n",
                   star.status().ToString().c_str());
      return 1;
    }
    CompiledChain::StationaryResult iterated;
    const double power_ms = bench::TimeMs([&] {
      auto result = (*star)->chain.Stationary(100000, 1e-10);
      if (!result.ok()) {
        std::fprintf(stderr, "bench_compiled_chain: stationary failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      iterated = *std::move(result);
    });
    // The compiled space keeps no exact chain: enumerate it again for the
    // Gaussian-elimination reference.
    StateSpaceOptions sso;
    sso.max_states = options.max_states;
    auto star_space =
        BuildStateSpace(star_walk->kernel, star_walk->initial, sso);
    if (!star_space.ok()) {
      std::fprintf(stderr, "bench_compiled_chain: star build failed: %s\n",
                   star_space.status().ToString().c_str());
      return 1;
    }
    std::vector<double> exact;
    const double exact_ms = bench::TimeMs([&] {
      auto result = star_space->chain.StationaryDistribution();
      if (!result.ok()) {
        std::fprintf(stderr, "bench_compiled_chain: exact solve failed\n");
        std::exit(1);
      }
      exact = *std::move(result);
    });
    double max_dev = 0.0;
    for (size_t s = 0; s < exact.size(); ++s) {
      max_dev = std::max(max_dev, std::abs(iterated.pi[s] - exact[s]));
    }
    bench::PrintRow({"stationary", "iters",
                     bench::FmtInt(iterated.iterations), "power_ms",
                     bench::Fmt(power_ms), "exact_ms", bench::Fmt(exact_ms),
                     "max_dev", bench::Fmt(max_dev, 8)});
    stationary.Set("iterations", static_cast<int64_t>(iterated.iterations));
    stationary.Set("residual", iterated.residual);
    stationary.Set("power_ms", power_ms);
    stationary.Set("exact_ms", exact_ms);
    stationary.Set("max_abs_deviation", max_dev);
  }
  report.Set("stationary", std::move(stationary));

  std::ofstream out("BENCH_pr6.json");
  out << report.DumpPretty() << "\n";
  std::printf("wrote BENCH_pr6.json\n");

  // Perf-smoke gate: the whole point of the compiled tier is to be much
  // faster than interpreting the kernel per step.
  if (compiled_sps_1 <= interp_sps) {
    std::fprintf(stderr,
                 "bench_compiled_chain: compiled tier (%0.f steps/s) is not "
                 "faster than interpreted (%0.f steps/s)\n",
                 compiled_sps_1, interp_sps);
    return 1;
  }
  return 0;
}
