// Property tests for the canonicalize-once construction path: a relation
// sealed from raw appended tuples must be indistinguishable (tuples, schema,
// hash, downstream exact distributions) from one grown by sequential Insert
// calls, for arbitrary tuple multisets.
#include "relational/relation.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "ra/plan.h"
#include "ra/ra_expr.h"
#include "relational/algebra.h"
#include "util/random.h"

namespace pfql {
namespace {

// A random tuple over a small value domain so duplicates are frequent.
Tuple RandomTuple(size_t arity, uint64_t domain, Rng* rng) {
  Tuple t;
  for (size_t i = 0; i < arity; ++i) {
    t.Append(Value(static_cast<int64_t>(rng->NextIndex(domain))));
  }
  return t;
}

std::vector<Tuple> RandomMultiset(size_t n, size_t arity, uint64_t domain,
                                  Rng* rng) {
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(RandomTuple(arity, domain, rng));
  return out;
}

Schema ArbitrarySchema(size_t arity) {
  std::vector<std::string> cols;
  for (size_t i = 0; i < arity; ++i) cols.push_back("c" + std::to_string(i));
  return Schema(cols);
}

// The reference path: one Insert per tuple.
Relation ReferenceInsert(const Schema& schema,
                         const std::vector<Tuple>& tuples) {
  Relation rel(schema);
  for (const auto& t : tuples) rel.Insert(t);
  return rel;
}

TEST(RelationBuilderTest, SealMatchesSequentialInsert) {
  Rng rng(7);
  for (size_t trial = 0; trial < 50; ++trial) {
    const size_t arity = 1 + rng.NextIndex(3);
    const size_t n = rng.NextIndex(200);
    const uint64_t domain = 1 + rng.NextIndex(8);  // small: many duplicates
    const Schema schema = ArbitrarySchema(arity);
    const std::vector<Tuple> tuples = RandomMultiset(n, arity, domain, &rng);

    Relation reference = ReferenceInsert(schema, tuples);

    RelationBuilder builder(schema);
    builder.Reserve(tuples.size());
    for (const auto& t : tuples) builder.Add(t);
    EXPECT_EQ(builder.staged(), tuples.size());
    auto sealed = builder.Seal();
    ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();

    EXPECT_EQ(sealed.value(), reference);
    EXPECT_EQ(sealed.value().tuples(), reference.tuples());
    EXPECT_EQ(sealed.value().Hash(), reference.Hash());
    EXPECT_EQ(sealed.value().schema().ToString(),
              reference.schema().ToString());
  }
}

TEST(RelationBuilderTest, SealRejectsArityMismatch) {
  std::vector<Tuple> bad;
  bad.push_back(Tuple{Value(1), Value(2)});
  auto rel = Relation::Make(Schema({"a"}), std::move(bad));
  EXPECT_FALSE(rel.ok());
}

TEST(RelationBuilderTest, InsertAllMatchesSequentialInsert) {
  Rng rng(11);
  for (size_t trial = 0; trial < 50; ++trial) {
    const size_t arity = 1 + rng.NextIndex(3);
    const uint64_t domain = 1 + rng.NextIndex(8);
    const Schema schema = ArbitrarySchema(arity);
    Relation base =
        ReferenceInsert(schema, RandomMultiset(rng.NextIndex(100), arity,
                                               domain, &rng));
    const std::vector<Tuple> batch =
        RandomMultiset(rng.NextIndex(100), arity, domain, &rng);

    Relation reference = base;
    size_t added_ref = 0;
    for (const auto& t : batch) added_ref += reference.Insert(t) ? 1 : 0;

    Relation batched = base;
    const size_t added = batched.InsertAll(batch);

    EXPECT_EQ(batched, reference);
    EXPECT_EQ(added, added_ref);
    EXPECT_EQ(batched.Hash(), reference.Hash());
  }
}

TEST(RelationBuilderTest, WithSchemaRebindsNamesOnly) {
  Rng rng(13);
  Relation rel =
      ReferenceInsert(ArbitrarySchema(2), RandomMultiset(64, 2, 5, &rng));
  const size_t h = rel.Hash();

  auto renamed = rel.WithSchema(Schema({"x", "y"}));
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(renamed.value().tuples(), rel.tuples());
  EXPECT_EQ(renamed.value().schema().ToString(), Schema({"x", "y"}).ToString());
  // Hash covers tuples only, so the rebind carries the cache unchanged.
  EXPECT_EQ(renamed.value().Hash(), h);

  EXPECT_FALSE(rel.WithSchema(Schema({"x"})).ok());        // arity mismatch
  EXPECT_FALSE(rel.WithSchema(Schema({"x", "x"})).ok());   // invalid schema
}

TEST(RelationBuilderTest, HashCacheInvalidatedByMutation) {
  Relation rel(Schema({"a"}));
  rel.Insert(Tuple{Value(1)});
  const size_t h1 = rel.Hash();

  rel.Insert(Tuple{Value(2)});
  const size_t h2 = rel.Hash();
  EXPECT_NE(h1, h2);

  // The recomputed hash matches a fresh relation with the same contents.
  Relation fresh(Schema({"a"}));
  fresh.Insert(Tuple{Value(1)});
  fresh.Insert(Tuple{Value(2)});
  EXPECT_EQ(h2, fresh.Hash());

  rel.Erase(Tuple{Value(2)});
  EXPECT_EQ(rel.Hash(), h1);

  // Batch mutation invalidates too.
  std::vector<Tuple> batch;
  batch.push_back(Tuple{Value(2)});
  rel.InsertAll(std::move(batch));
  EXPECT_EQ(rel.Hash(), h2);
}

// Naive per-tuple-Insert reference implementations of the operators that
// were rewritten onto the builder path.
Relation NaiveProject(const Relation& rel, const std::vector<size_t>& idx,
                      const Schema& out_schema) {
  Relation out(out_schema);
  for (const auto& t : rel.tuples()) out.Insert(t.Project(idx));
  return out;
}

Relation NaiveJoin(const Relation& a, const Relation& b,
                   const std::vector<size_t>& a_key,
                   const std::vector<size_t>& b_key,
                   const std::vector<size_t>& b_rest,
                   const Schema& out_schema) {
  Relation out(out_schema);
  for (const auto& ta : a.tuples()) {
    for (const auto& tb : b.tuples()) {
      if (ta.Project(a_key) != tb.Project(b_key)) continue;
      Tuple joined = ta;
      for (size_t i : b_rest) joined.Append(tb[i]);
      out.Insert(std::move(joined));
    }
  }
  return out;
}

TEST(RelationBuilderTest, OperatorsMatchNaiveInsertReference) {
  Rng rng(17);
  for (size_t trial = 0; trial < 25; ++trial) {
    const uint64_t domain = 1 + rng.NextIndex(4);
    Relation a = ReferenceInsert(Schema({"x", "y"}),
                                 RandomMultiset(rng.NextIndex(80), 2, domain,
                                                &rng));
    Relation b = ReferenceInsert(Schema({"y", "z"}),
                                 RandomMultiset(rng.NextIndex(80), 2, domain,
                                                &rng));

    // π_x(a) against naive projection.
    auto proj = Project(a, {"x"});
    ASSERT_TRUE(proj.ok());
    EXPECT_EQ(proj.value(), NaiveProject(a, {0}, Schema({"x"})));

    // a ⋈ b (shared column y) against the nested-loop reference.
    auto join = NaturalJoin(a, b);
    ASSERT_TRUE(join.ok());
    EXPECT_EQ(join.value(),
              NaiveJoin(a, b, {1}, {0}, {1}, Schema({"x", "y", "z"})));

    // σ_{x == 0}(a) against a filtered rebuild.
    auto sel = Select(a, Predicate::ColumnEquals("x", Value(0)));
    ASSERT_TRUE(sel.ok());
    Relation sel_ref(a.schema());
    for (const auto& t : a.tuples()) {
      if (t[0] == Value(0)) sel_ref.Insert(t);
    }
    EXPECT_EQ(sel.value(), sel_ref);

    // ρ_{x→w}(a): same tuples, new names.
    auto ren = RenameColumns(a, {{"x", "w"}});
    ASSERT_TRUE(ren.ok());
    EXPECT_EQ(ren.value().tuples(), a.tuples());
    EXPECT_EQ(ren.value().schema().ToString(),
              Schema({"w", "y"}).ToString());
  }
}

TEST(RelationBuilderTest, EvalExactDistributionsBitIdentical) {
  // The same repair-key query evaluated over an instance whose relation was
  // built by Seal() versus by sequential Insert must yield distributions
  // that are exactly equal outcome-by-outcome (values and probabilities).
  Rng rng(23);
  for (size_t trial = 0; trial < 10; ++trial) {
    std::vector<Tuple> rows;
    const size_t keys = 2 + rng.NextIndex(3);
    for (size_t k = 0; k < keys; ++k) {
      const size_t options = 1 + rng.NextIndex(3);
      for (size_t o = 0; o < options; ++o) {
        rows.push_back(Tuple{Value(static_cast<int64_t>(k)),
                             Value(static_cast<int64_t>(o)),
                             Value(static_cast<int64_t>(1 + rng.NextIndex(3)))});
      }
    }

    Instance via_insert;
    via_insert.Set("r", ReferenceInsert(Schema({"k", "v", "p"}), rows));

    RelationBuilder builder(Schema({"k", "v", "p"}));
    for (const auto& t : rows) builder.Add(t);
    auto sealed = builder.Seal();
    ASSERT_TRUE(sealed.ok());
    Instance via_builder;
    via_builder.Set("r", std::move(sealed).value());

    ASSERT_EQ(via_insert, via_builder);
    EXPECT_EQ(via_insert.Hash(), via_builder.Hash());

    RepairKeySpec spec;
    spec.key_columns = {"k"};
    spec.weight_column = "p";
    RaExpr::Ptr expr =
        RaExpr::Project(RaExpr::RepairKey(RaExpr::Base("r"), spec), {"k", "v"});

    auto plan = RaPlan::Compile(expr, {{"r", Schema({"k", "v", "p"})}});
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto d1 = plan->Exact(via_insert);
    auto d2 = plan->Exact(via_builder);
    ASSERT_TRUE(d1.ok());
    ASSERT_TRUE(d2.ok());
    ASSERT_EQ(d1.value().outcomes().size(), d2.value().outcomes().size());
    for (size_t i = 0; i < d1.value().outcomes().size(); ++i) {
      EXPECT_EQ(d1.value().outcomes()[i].value,
                d2.value().outcomes()[i].value);
      EXPECT_EQ(d1.value().outcomes()[i].probability,
                d2.value().outcomes()[i].probability);
    }
  }
}

}  // namespace
}  // namespace pfql

