// Experiment A4: relational-substrate microbenchmarks — relation
// construction and hashing, and the RA operators every query evaluation is
// built from, each timed as a compiled plan (ra/plan.h).
#include <benchmark/benchmark.h>

#include <vector>

#include "ra/plan.h"
#include "relational/instance.h"
#include "util/random.h"

namespace pfql {
namespace {

// `rows` distinct random pairs over [0, domain)²; rows must not exceed
// domain², or the loop never ends.
Relation RandomBinary(size_t rows, size_t domain, uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema({"i", "j"}));
  while (r.size() < rows) {
    r.Insert(Tuple{Value(static_cast<int64_t>(rng.NextIndex(domain))),
                   Value(static_cast<int64_t>(rng.NextIndex(domain)))});
  }
  return r;
}

void BM_Insert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    Relation r(Schema({"i", "j"}));
    for (size_t k = 0; k < n; ++k) {
      r.Insert(Tuple{Value(static_cast<int64_t>(rng.NextIndex(1 << 20))),
                     Value(static_cast<int64_t>(k))});
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Insert)->Range(64, 16384);

// Construction-path comparison at large cardinality: n random tuples
// canonicalized via per-tuple Insert (the pre-builder path; O(n²) tuple
// moves) versus RelationBuilder::Seal (one sort + dedup pass).
void BM_ConstructInsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    tuples.push_back(
        Tuple{Value(static_cast<int64_t>(rng.NextIndex(1 << 30))),
              Value(static_cast<int64_t>(k))});
  }
  for (auto _ : state) {
    Relation r(Schema({"i", "j"}));
    for (const auto& t : tuples) r.Insert(t);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// The quadratic path is capped at ~10^5: at 10^6 a single iteration takes
// minutes, which is the point of the builder.
BENCHMARK(BM_ConstructInsert)->Arg(10000)->Arg(100000);

void BM_ConstructBuilder(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    tuples.push_back(
        Tuple{Value(static_cast<int64_t>(rng.NextIndex(1 << 30))),
              Value(static_cast<int64_t>(k))});
  }
  for (auto _ : state) {
    RelationBuilder b(Schema({"i", "j"}));
    b.Reserve(tuples.size());
    for (const auto& t : tuples) b.Add(t);
    auto r = b.Seal();
    if (!r.ok()) state.SkipWithError("seal failed");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ConstructBuilder)->Arg(10000)->Arg(100000)->Arg(1000000);

// Times the plans of `exprs`, each compiled once against `db`, the way the
// engine runs an operator: base relations read in place, columns by
// position.
void TimePlans(benchmark::State& state, const std::vector<RaExpr::Ptr>& exprs,
               const Instance& db, int64_t items) {
  std::vector<RaPlan> plans;
  for (const RaExpr::Ptr& expr : exprs) {
    auto plan = RaPlan::Compile(expr, db.Schemas());
    if (!plan.ok()) {
      state.SkipWithError("compile failed");
      return;
    }
    plans.push_back(std::move(plan).value());
  }
  for (auto _ : state) {
    for (const RaPlan& plan : plans) {
      auto out = plan.Sample(db, nullptr);
      if (!out.ok()) state.SkipWithError("eval failed");
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() * items);
}

Instance Pair(Relation a, Relation b) {
  Instance db;
  db.Set("a", std::move(a));
  db.Set("b", std::move(b));
  return db;
}

void BM_NaturalJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Instance db = Pair(RandomBinary(n, n / 4 + 4, 1),
                           RandomBinary(n, n / 4 + 4, 2));
  TimePlans(state,
            {RaExpr::Join(RaExpr::Base("a"),
                          RaExpr::Rename(RaExpr::Base("b"),
                                         {{"i", "j"}, {"j", "k"}}))},
            db, state.range(0));
}
// 65536 rows against ~16 matches per key yields a ~10^6-tuple join output.
BENCHMARK(BM_NaturalJoin)->Range(64, 65536);

// Cartesian product with n² output tuples: 100 → 10⁴, 1000 → 10⁶.
void BM_Product(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Instance db = Pair(RandomBinary(n, 1 << 30, 11),
                           RandomBinary(n, 1 << 30, 12));
  TimePlans(state,
            {RaExpr::Product(RaExpr::Base("a"),
                             RaExpr::Rename(RaExpr::Base("b"),
                                            {{"i", "k"}, {"j", "l"}}))},
            db, state.range(0) * state.range(0));
}
BENCHMARK(BM_Product)->Arg(100)->Arg(1000);

void BM_Select(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Instance db = Pair(RandomBinary(n, 1024, 5), Relation());
  TimePlans(state,
            {RaExpr::Select(RaExpr::Base("a"),
                            Predicate::Cmp(CmpOp::kLt,
                                           ScalarExpr::Column("i"),
                                           ScalarExpr::Const(Value(512))))},
            db, state.range(0));
}
BENCHMARK(BM_Select)->Range(64, 16384);

void BM_Project(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  // 256 values of j: the projection keeps at most 256 of up to 16384 rows.
  const Instance db = Pair(RandomBinary(n, 256, 6), Relation());
  TimePlans(state, {RaExpr::Project(RaExpr::Base("a"), {"j"})}, db,
            state.range(0));
}
BENCHMARK(BM_Project)->Range(64, 16384);

void BM_UnionDifference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Instance db = Pair(RandomBinary(n, n, 7), RandomBinary(n, n, 8));
  TimePlans(state,
            {RaExpr::Union(RaExpr::Base("a"), RaExpr::Base("b")),
             RaExpr::Difference(RaExpr::Base("a"), RaExpr::Base("b"))},
            db, state.range(0) * 2);
}
BENCHMARK(BM_UnionDifference)->Range(64, 16384);

void BM_InstanceHash(benchmark::State& state) {
  Instance db;
  db.Set("r", RandomBinary(static_cast<size_t>(state.range(0)), 256, 9));
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Hash());
  }
}
BENCHMARK(BM_InstanceHash)->Range(64, 16384);

}  // namespace
}  // namespace pfql

BENCHMARK_MAIN();
