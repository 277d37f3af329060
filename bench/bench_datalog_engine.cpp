// Experiment A5: inflationary datalog engine throughput — sampled fixpoint
// runs per second on chain/grid reachability workloads, plus the exact
// computation-tree traversal on small instances.
#include <benchmark/benchmark.h>

#include "datalog/engine.h"
#include "gadgets/graphs.h"

namespace pfql {
namespace {

void BM_SampleFixpointChain(benchmark::State& state) {
  gadgets::Graph g = gadgets::Line(state.range(0));
  auto gadget = gadgets::ReachabilityProgram(g, 0, g.num_nodes - 1);
  if (!gadget.ok()) return;
  Rng rng(2);
  for (auto _ : state) {
    auto engine =
        datalog::InflationaryEngine::Make(gadget->program, gadget->edb);
    if (!engine.ok()) state.SkipWithError("make failed");
    auto fixpoint = engine->RunToFixpoint(&rng);
    if (!fixpoint.ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(fixpoint);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleFixpointChain)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_SampleFixpointDense(benchmark::State& state) {
  Rng g_rng(4);
  gadgets::Graph g =
      gadgets::RandomDigraph(state.range(0), 8.0 / state.range(0), &g_rng);
  auto gadget = gadgets::ReachabilityProgram(g, 0, g.num_nodes - 1);
  if (!gadget.ok()) return;
  Rng rng(2);
  for (auto _ : state) {
    auto engine =
        datalog::InflationaryEngine::Make(gadget->program, gadget->edb);
    if (!engine.ok()) state.SkipWithError("make failed");
    auto fixpoint = engine->RunToFixpoint(&rng);
    if (!fixpoint.ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(fixpoint);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleFixpointDense)->Arg(8)->Arg(32)->Arg(128);

void BM_TransitiveClosure(benchmark::State& state) {
  auto program = datalog::ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  if (!program.ok()) return;
  Instance edb;
  Relation e(Schema({"i", "j"}));
  const int64_t n = state.range(0);
  for (int64_t i = 0; i + 1 < n; ++i) {
    e.Insert(Tuple{Value(i), Value(i + 1)});
  }
  edb.Set("e", std::move(e));
  Rng rng(1);
  for (auto _ : state) {
    auto engine = datalog::InflationaryEngine::Make(*program, edb);
    if (!engine.ok()) state.SkipWithError("make failed");
    auto fixpoint = engine->RunToFixpoint(&rng);
    if (!fixpoint.ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(fixpoint);
  }
}
// 256-node chain: the closure holds ~3*10^4 derived tuples.
BENCHMARK(BM_TransitiveClosure)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_ExactTraversalDiamonds(benchmark::State& state) {
  // Chain of independent 2-way choices: computation tree of size ~2^k.
  const int64_t k = state.range(0);
  Instance edb;
  Relation e(Schema({"i", "j", "p"}));
  for (int64_t d = 0; d < k; ++d) {
    // diamond: 3d -> {3d+1, 3d+2} -> 3(d+1)
    e.Insert(Tuple{Value(3 * d), Value(3 * d + 1), Value(1)});
    e.Insert(Tuple{Value(3 * d), Value(3 * d + 2), Value(1)});
    e.Insert(Tuple{Value(3 * d + 1), Value(3 * (d + 1)), Value(1)});
    e.Insert(Tuple{Value(3 * d + 2), Value(3 * (d + 1)), Value(1)});
  }
  e.Insert(Tuple{Value(3 * k), Value(3 * k), Value(1)});
  edb.Set("e", std::move(e));
  auto program = datalog::ParseProgram(R"(
    cur(0).
    c2(<X>, Y) :- cur(X), e(X, Y, P).
    cur(Y) :- c2(X, Y).
  )");
  if (!program.ok()) return;
  QueryEvent event{"cur", Tuple{Value(3 * k)}};
  for (auto _ : state) {
    auto p = datalog::ExactFixpointEventProbability(*program, edb, event);
    if (!p.ok()) state.SkipWithError("exact failed");
    benchmark::DoNotOptimize(p);
  }
  state.counters["diamonds"] = static_cast<double>(k);
}
BENCHMARK(BM_ExactTraversalDiamonds)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

}  // namespace
}  // namespace pfql

BENCHMARK_MAIN();
