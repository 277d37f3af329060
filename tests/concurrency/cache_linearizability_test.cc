// Concurrency proof obligations for the sharded ResultCache: ≥10k-op
// histories of Lookup/Insert from 8 threads verified by the
// linearizability checker against a per-key register model with
// nondeterministic eviction, at both the single-shard (capacity 8, heavy
// eviction) and 16-shard (capacity 256) configurations. Run under TSan in
// the concurrency-stress CI job.
#include "server/result_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "linearizability.h"
#include "schedule_permuter.h"
#include "util/epoch.h"

namespace pfql {
namespace server {
namespace {

using pfql::testing::Event;
using pfql::testing::History;
using pfql::testing::IsLinearizable;
using pfql::testing::PartitionBy;
using pfql::testing::SchedulePermuter;
using pfql::testing::ScheduleSeed;

CacheKey KeyFor(uint64_t k) {
  return CacheKey{k, k * 0x9e3779b97f4a7c15ULL, RequestKind::kExact,
                  "key=" + std::to_string(k)};
}

Json PayloadFor(int64_t value) {
  Json payload = Json::Object();
  payload.Set("value", value);
  return payload;
}

struct CacheOp {
  enum Kind { kInsert, kLookup } kind = kInsert;
  uint64_t key = 0;
  int64_t value = -1;  ///< inserted value, or the hit's value; -1 = miss
};

// Sequential model per key: a register that eviction may clear at any
// moment (evictions are driven by other keys' inserts, which this
// partition cannot see — so a miss is always legal, but it *proves* the
// entry was gone: a later hit without an intervening insert is a
// violation). A hit must return the exact last-inserted value; anything
// else is aliasing or a torn refresh.
std::optional<int64_t> ApplyCacheOp(const int64_t& state,
                                    const CacheOp& op) {
  if (op.kind == CacheOp::kInsert) return op.value;
  if (op.value == -1) return -1;  // miss: entry evicted at this point
  if (state != op.value) return std::nullopt;
  return state;
}

void RunCacheHistory(size_t capacity, uint64_t seed_salt) {
  const uint64_t seed = ScheduleSeed(20260808 + seed_salt);
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 80;
  constexpr size_t kOpsPerRound = 16;
  constexpr uint64_t kKeys = 32;

  ResultCache cache(capacity);
  History<CacheOp> history(kThreads);
  SchedulePermuter permuter(seed, kThreads);
  std::atomic<size_t> lookups{0};
  permuter.Run(kRounds, [&](size_t thread, Rng& rng) {
    for (size_t i = 0; i < kOpsPerRound; ++i) {
      SchedulePermuter::Jitter(&rng);
      CacheOp op;
      op.key = rng.NextIndex(kKeys);
      if (rng.NextBernoulli(0.4)) {
        op.kind = CacheOp::kInsert;
        op.value = static_cast<int64_t>(rng.NextIndex(1 << 20));
        const uint64_t invoke = history.Invoke();
        cache.Insert(KeyFor(op.key), PayloadFor(op.value));
        history.Record(thread, invoke, op);
      } else {
        op.kind = CacheOp::kLookup;
        const uint64_t invoke = history.Invoke();
        std::optional<Json> hit = cache.Lookup(KeyFor(op.key));
        lookups.fetch_add(1, std::memory_order_relaxed);
        op.value = hit.has_value() ? hit->Find("value")->AsInt() : -1;
        history.Record(thread, invoke, op);
      }
      // Interleave consistent-cut reads with the hammer: the snapshot and
      // stats must agree on every cut, not just at quiescence.
      if (i == kOpsPerRound / 2 && thread == 0) {
        Json snapshot;
        ResultCache::Stats stats;
        cache.SnapshotWithStats(&snapshot, &stats);
        size_t entry_hits = 0;
        for (const Json& item : snapshot.items()) {
          entry_hits += static_cast<size_t>(item.Find("hits")->AsInt());
        }
        EXPECT_LE(entry_hits, stats.hits);
        EXPECT_EQ(snapshot.items().size(), stats.entries);
        EXPECT_LE(stats.entries, capacity);
      }
    }
  });

  std::vector<Event<CacheOp>> events = history.Take();
  ASSERT_GE(events.size(), 10000u) << "history too small to be meaningful";

  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_LE(stats.entries, capacity);

  auto parts = PartitionBy(std::move(events),
                           [](const CacheOp& op) { return op.key; });
  for (auto& [key, part] : parts) {
    std::string error;
    const bool linearizable = IsLinearizable<CacheOp, int64_t>(
        std::move(part), int64_t{-1}, ApplyCacheOp,
        [](const int64_t& s) { return std::to_string(s); }, &error);
    EXPECT_TRUE(linearizable)
        << "key " << key << ": " << error << " (seed " << seed << ")";
  }
  epoch::Collector::Instance().Collect();
}

TEST(ResultCacheConcurrencyTest, SingleShardHistoryLinearizes) {
  // Capacity 8 → one shard, exact global LRU, constant eviction pressure:
  // the unlink/retire path runs against lock-free readers all test long.
  RunCacheHistory(/*capacity=*/8, /*seed_salt=*/1);
}

TEST(ResultCacheConcurrencyTest, ShardedHistoryLinearizes) {
  // Capacity 256 → 16 shards: the cross-shard consistent cut and the
  // lock-free probe path dominate instead of eviction.
  RunCacheHistory(/*capacity=*/256, /*seed_salt=*/2);
}

}  // namespace
}  // namespace server
}  // namespace pfql
