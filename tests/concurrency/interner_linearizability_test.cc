// Concurrency proof obligations for ConcurrentInterner: ≥10k-operation
// histories of Intern/Find from 8 threads, recorded and verified against a
// sequential model by the linearizability checker, plus the global node
// invariants that per-key linearizability cannot see (one node per key,
// one insert win per key, node↔instance agreement). Stripes are
// deliberately scarce so every operation contends inside a couple of
// stripes and the grow path runs many times under fire while lock-free
// Finds probe the arrays it outgrows. Run under TSan in the
// concurrency-stress CI job.
#include "markov/concurrent_interner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "linearizability.h"
#include "schedule_permuter.h"
#include "relational/instance.h"

namespace pfql {
namespace {

using testing::Event;
using testing::History;
using testing::IsLinearizable;
using testing::PartitionBy;
using testing::SchedulePermuter;
using testing::ScheduleSeed;

Instance KeyInstance(uint64_t k) {
  Instance db;
  Relation r(Schema({"k"}));
  r.Insert(Tuple{Value(static_cast<int64_t>(k))});
  db.Set("key", std::move(r));
  return db;
}

struct InternOp {
  enum Kind { kIntern, kFind } kind = kIntern;
  uint64_t key = 0;
  const ConcurrentInterner::Node* node = nullptr;  // nullptr = Find miss
  bool inserted = false;                           // Intern only
};

// Sequential model per key: has this key ever been interned? The first
// linearized Intern must report inserted=true; every later Intern must
// dedup; a Find must miss before the first Intern and hit after (the
// interner never forgets). Node identity is checked globally, not here.
std::optional<bool> ApplyInternOp(const bool& interned, const InternOp& op) {
  if (op.kind == InternOp::kIntern) {
    if (!interned) return op.inserted ? std::optional<bool>(true)
                                      : std::nullopt;
    return op.inserted ? std::nullopt : std::optional<bool>(true);
  }
  const bool found = op.node != nullptr;
  if (found != interned) return std::nullopt;
  return interned;
}

TEST(ConcurrentInternerConcurrencyTest, TenThousandOpHistoryLinearizes) {
  const uint64_t seed = ScheduleSeed(20260808);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 96;
  constexpr size_t kOpsPerRound = 16;
  constexpr uint64_t kKeys = 48;

  // 2 stripes: every key contends inside one of two spinlock domains, and
  // each stripe doubles several times while lock-free Finds race it.
  ConcurrentInterner interner(/*stripes=*/2);
  History<InternOp> history(kThreads);

  SchedulePermuter permuter(seed, kThreads);
  permuter.Run(kRounds, [&](size_t thread, Rng& rng) {
    for (size_t i = 0; i < kOpsPerRound; ++i) {
      SchedulePermuter::Jitter(&rng);
      InternOp op;
      op.key = rng.NextIndex(kKeys);
      if (rng.NextBernoulli(0.5)) {
        op.kind = InternOp::kIntern;
        const uint64_t invoke = history.Invoke();
        auto [node, inserted] = interner.Intern(KeyInstance(op.key));
        op.node = node;
        op.inserted = inserted;
        history.Record(thread, invoke, op);
      } else {
        op.kind = InternOp::kFind;
        const uint64_t invoke = history.Invoke();
        op.node = interner.Find(KeyInstance(op.key));
        history.Record(thread, invoke, op);
      }
    }
  });

  std::vector<Event<InternOp>> events = history.Take();
  ASSERT_GE(events.size(), 10000u) << "history too small to be meaningful";

  // Global invariants first: every key maps to exactly one node, no node
  // serves two keys, exactly one Intern per key won the insert, and each
  // node holds its key's instance, which Find returns.
  std::map<uint64_t, const ConcurrentInterner::Node*> key_to_node;
  std::map<uint64_t, size_t> insert_wins;
  for (const auto& event : events) {
    if (event.op.node == nullptr) continue;
    auto [it, fresh] = key_to_node.emplace(event.op.key, event.op.node);
    EXPECT_EQ(it->second, event.op.node)
        << "key " << event.op.key << " observed in two nodes";
    if (event.op.kind == InternOp::kIntern && event.op.inserted) {
      ++insert_wins[event.op.key];
    }
  }
  EXPECT_EQ(interner.size(), key_to_node.size());
  std::map<const ConcurrentInterner::Node*, uint64_t> node_to_key;
  for (const auto& [key, node] : key_to_node) {
    auto [it, fresh] = node_to_key.emplace(node, key);
    EXPECT_TRUE(fresh) << "keys " << it->second << " and " << key
                       << " share a node";
    EXPECT_EQ(node->instance, KeyInstance(key));
    EXPECT_EQ(interner.Find(KeyInstance(key)), node);
    EXPECT_EQ(insert_wins[key], 1u)
        << "key " << key << " reported inserted=true " << insert_wins[key]
        << " times";
  }
  EXPECT_GT(interner.grow_count(), 0u)
      << "test never raced lock-free Finds against the grow path";

  // Per-key linearizability: the publication protocol must never let a
  // Find miss after any thread's Intern has returned, nor hit before any
  // Intern was invoked.
  auto parts = PartitionBy(std::move(events),
                           [](const InternOp& op) { return op.key; });
  for (auto& [key, part] : parts) {
    std::string error;
    const bool linearizable = IsLinearizable<InternOp, bool>(
        std::move(part), false, ApplyInternOp,
        [](const bool& s) { return std::string(s ? "1" : "0"); }, &error);
    EXPECT_TRUE(linearizable)
        << "key " << key << ": " << error << " (seed " << seed << ")";
  }
}

}  // namespace
}  // namespace pfql
