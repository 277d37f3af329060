// Experiment A6 (ablation): the RA rewrite optimizer (future-work item of
// the paper's Sec 6). Measures exact evaluation, through compiled plans, of
// unoptimized vs optimized expression trees: selection fusion,
// select-into-join pushdown, and a compiled datalog body.
#include <benchmark/benchmark.h>

#include "datalog/body_eval.h"
#include "datalog/program.h"
#include "ra/optimizer.h"
#include "ra/plan.h"
#include "util/random.h"

namespace pfql {
namespace {

Instance BigGraph(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Instance db;
  Relation e(Schema({"i", "j", "p"}));
  for (int64_t k = 0; k < 6 * n; ++k) {
    e.Insert(Tuple{Value(static_cast<int64_t>(rng.NextIndex(n))),
                   Value(static_cast<int64_t>(rng.NextIndex(n))),
                   Value(static_cast<int64_t>(1 + rng.NextIndex(4)))});
  }
  db.Set("e", std::move(e));
  Relation c(Schema({"i"}));
  for (int64_t v = 0; v < n / 4 + 1; ++v) c.Insert(Tuple{Value(v)});
  db.Set("c", std::move(c));
  return db;
}

std::map<std::string, Schema> GraphSchemas() {
  return {{"e", Schema({"i", "j", "p"})}, {"c", Schema({"i"})}};
}

// Times exact evaluation of `expr`'s plan, compiled once, on `db`.
void TimeExact(benchmark::State& state, const RaExpr::Ptr& expr,
               const Instance& db) {
  auto plan = RaPlan::Compile(expr, GraphSchemas());
  if (!plan.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  for (auto _ : state) {
    auto dist = plan->Exact(db);
    if (!dist.ok()) state.SkipWithError("eval failed");
    benchmark::DoNotOptimize(dist);
  }
}

// Chain of k single-column selections over e.
RaExpr::Ptr SelectChain(int64_t k) {
  RaExpr::Ptr expr = RaExpr::Base("e");
  for (int64_t s = 0; s < k; ++s) {
    expr = RaExpr::Select(
        expr, Predicate::Cmp(CmpOp::kGe, ScalarExpr::Column("p"),
                             ScalarExpr::Const(Value(1 + (s % 3)))));
  }
  return expr;
}

void BM_SelectChainRaw(benchmark::State& state) {
  Instance db = BigGraph(256, 1);
  RaExpr::Ptr expr = SelectChain(state.range(0));
  TimeExact(state, expr, db);
}
BENCHMARK(BM_SelectChainRaw)->Arg(2)->Arg(8)->Arg(16);

void BM_SelectChainOptimized(benchmark::State& state) {
  Instance db = BigGraph(256, 1);
  RaExpr::Ptr expr = Optimize(SelectChain(state.range(0)), GraphSchemas());
  TimeExact(state, expr, db);
}
BENCHMARK(BM_SelectChainOptimized)->Arg(2)->Arg(8)->Arg(16);

// Selection over a join: pushdown shrinks the join input.
RaExpr::Ptr SelectOverJoin() {
  return RaExpr::Select(
      RaExpr::Join(RaExpr::Base("c"), RaExpr::Base("e")),
      Predicate::ColumnEquals("j", Value(3)));
}

void BM_JoinPushdownRaw(benchmark::State& state) {
  Instance db = BigGraph(state.range(0), 2);
  RaExpr::Ptr expr = SelectOverJoin();
  TimeExact(state, expr, db);
}
BENCHMARK(BM_JoinPushdownRaw)->Arg(64)->Arg(256)->Arg(1024);

void BM_JoinPushdownOptimized(benchmark::State& state) {
  Instance db = BigGraph(state.range(0), 2);
  RaExpr::Ptr expr = Optimize(SelectOverJoin(), GraphSchemas());
  TimeExact(state, expr, db);
}
BENCHMARK(BM_JoinPushdownOptimized)->Arg(64)->Arg(256)->Arg(1024);

// A compiled 4-atom datalog body (path of length 3 with endpoint filter).
void BodyBench(benchmark::State& state, bool optimize) {
  auto program = datalog::ParseProgram(
      "p4(W, Z) :- c(W), e(W, X, P1), e(X, Y, P2), e(Y, Z, P3), W != Z.");
  if (!program.ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  Instance db = BigGraph(state.range(0), 3);
  auto body = datalog::CompileBody(program->rules()[0], GraphSchemas());
  if (!body.ok()) {
    state.SkipWithError("compile failed");
    return;
  }
  RaExpr::Ptr expr = optimize ? Optimize(*body, GraphSchemas()) : *body;
  TimeExact(state, expr, db);
  state.counters["nodes"] = static_cast<double>(ExprSize(expr));
}

void BM_DatalogBodyRaw(benchmark::State& state) { BodyBench(state, false); }
void BM_DatalogBodyOptimized(benchmark::State& state) {
  BodyBench(state, true);
}
BENCHMARK(BM_DatalogBodyRaw)->Arg(32)->Arg(64);
BENCHMARK(BM_DatalogBodyOptimized)->Arg(32)->Arg(64);

}  // namespace
}  // namespace pfql

BENCHMARK_MAIN();
