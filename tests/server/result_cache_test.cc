#include "server/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace pfql {
namespace server {
namespace {

CacheKey Key(uint64_t program, uint64_t instance, const char* kind = "exact",
             const char* params = "event=e(1);threads=1") {
  return CacheKey{program, instance, RequestKindFromString(kind).value(),
                  params};
}

Json Payload(int value) {
  Json payload = Json::Object();
  payload.Set("value", value);
  return payload;
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache(4);
  EXPECT_FALSE(cache.Lookup(Key(1, 1)).has_value());
  cache.Insert(Key(1, 1), Payload(7));
  auto hit = cache.Lookup(Key(1, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->Find("value")->AsInt(), 7);

  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(ResultCacheTest, EveryKeyFieldDistinguishes) {
  ResultCache cache(16);
  cache.Insert(Key(1, 1, "exact", "p"), Payload(0));
  EXPECT_FALSE(cache.Lookup(Key(2, 1, "exact", "p")).has_value());
  EXPECT_FALSE(cache.Lookup(Key(1, 2, "exact", "p")).has_value());
  EXPECT_FALSE(cache.Lookup(Key(1, 1, "approx", "p")).has_value());
  EXPECT_FALSE(cache.Lookup(Key(1, 1, "exact", "q")).has_value());
  EXPECT_TRUE(cache.Lookup(Key(1, 1, "exact", "p")).has_value());
}

TEST(ResultCacheTest, LruEvictionOrder) {
  ResultCache cache(2);
  cache.Insert(Key(1, 0), Payload(1));
  cache.Insert(Key(2, 0), Payload(2));
  // Touch key 1 so key 2 becomes least-recently-used.
  EXPECT_TRUE(cache.Lookup(Key(1, 0)).has_value());
  cache.Insert(Key(3, 0), Payload(3));
  EXPECT_FALSE(cache.Lookup(Key(2, 0)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(1, 0)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(3, 0)).has_value());
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 2u);
}

TEST(ResultCacheTest, InsertRefreshesExistingEntry) {
  ResultCache cache(4);
  cache.Insert(Key(1, 1), Payload(1));
  cache.Insert(Key(1, 1), Payload(2));
  EXPECT_EQ(cache.GetStats().entries, 1u);
  auto hit = cache.Lookup(Key(1, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->Find("value")->AsInt(), 2);
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.Insert(Key(1, 1), Payload(1));
  EXPECT_FALSE(cache.Lookup(Key(1, 1)).has_value());
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCacheTest, ClearDropsEntriesButKeepsCounters) {
  ResultCache cache(4);
  cache.Insert(Key(1, 1), Payload(1));
  EXPECT_TRUE(cache.Lookup(Key(1, 1)).has_value());
  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().hits, 1u);
  EXPECT_FALSE(cache.Lookup(Key(1, 1)).has_value());
}

TEST(ResultCacheTest, SnapshotReportsPerEntryHits) {
  ResultCache cache(4);
  cache.Insert(Key(1, 1, "exact", "a"), Payload(1));
  cache.Insert(Key(2, 2, "forever", "b"), Payload(2));
  EXPECT_TRUE(cache.Lookup(Key(1, 1, "exact", "a")).has_value());
  EXPECT_TRUE(cache.Lookup(Key(1, 1, "exact", "a")).has_value());

  const Json snapshot = cache.Snapshot();
  ASSERT_TRUE(snapshot.is_array());
  ASSERT_EQ(snapshot.items().size(), 2u);
  // Most-recent first: the twice-hit exact entry leads.
  EXPECT_EQ(snapshot.items()[0].Find("kind")->AsString(), "exact");
  EXPECT_EQ(snapshot.items()[0].Find("hits")->AsInt(), 2);
  EXPECT_EQ(snapshot.items()[1].Find("kind")->AsString(), "forever");
  EXPECT_EQ(snapshot.items()[1].Find("hits")->AsInt(), 0);
}

// Regression soak for stats synchronization: readers polling GetStats()
// and Snapshot() while writers insert/lookup/clear concurrently. Run
// under TSan in CI; the invariant checked is hits + misses == lookups
// observed, which a torn or unlocked stats path would violate.
TEST(ResultCacheTest, StatsConsistentUnderConcurrentQueries) {
  ResultCache cache(8);
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&cache, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const uint64_t k = static_cast<uint64_t>((w * kOpsPerWriter + i) % 16);
        cache.Insert(Key(k, 0), Payload(static_cast<int>(k)));
        cache.Lookup(Key(k, 0));
        cache.Lookup(Key(k + 100, 0));  // guaranteed miss
      }
    });
  }
  std::thread reader([&cache] {
    for (int i = 0; i < 500; ++i) {
      const ResultCache::Stats stats = cache.GetStats();
      // Mid-flight snapshots must be internally consistent, never torn.
      EXPECT_LE(stats.entries, 8u);
      EXPECT_LE(stats.hits, stats.hits + stats.misses);
      cache.Snapshot();
    }
  });
  for (auto& t : writers) t.join();
  reader.join();

  const ResultCache::Stats stats = cache.GetStats();
  const uint64_t lookups = 2ull * kWriters * kOpsPerWriter;
  EXPECT_EQ(stats.hits + stats.misses, lookups);
  // Keys 100..115 are never inserted, so at least half the lookups miss.
  EXPECT_GE(stats.misses,
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_LE(stats.entries, 8u);
}

// Regression for the consistent-cut contract (PR 10): per-entry hit
// counters and the global counters must be one cut — the sum of per-entry
// hits can trail the global hit counter (hits on since-evicted entries)
// but may NEVER exceed it, on any cut taken while 8 threads hammer the
// hit path.
TEST(ResultCacheTest, SnapshotHitsNeverExceedGlobalHitsUnderHammer) {
  ResultCache cache(8);
  for (uint64_t k = 0; k < 8; ++k) cache.Insert(Key(k, 0), Payload(1));
  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 8; ++t) {
    hammers.emplace_back([&cache, &stop, t] {
      uint64_t k = static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        cache.Lookup(Key(k % 8, 0));
        if (++k % 64 == 0) cache.Insert(Key(k % 8, 0), Payload(2));
      }
    });
  }
  for (int cut = 0; cut < 400; ++cut) {
    Json snapshot;
    ResultCache::Stats stats;
    cache.SnapshotWithStats(&snapshot, &stats);
    uint64_t entry_hits = 0;
    for (const Json& item : snapshot.items()) {
      entry_hits += static_cast<uint64_t>(item.Find("hits")->AsInt());
    }
    ASSERT_LE(entry_hits, stats.hits) << "cut " << cut << " is inconsistent";
    ASSERT_EQ(snapshot.items().size(), stats.entries);
  }
  stop.store(true);
  for (auto& t : hammers) t.join();
}

// Collision seam: keys with identical hashes but different params (or any
// other field) land in the same bucket chain yet must never alias — the
// chain compares full keys, not hashes.
TEST(ResultCacheTest, CollidingHashesDoNotAlias) {
  // Every key hashes to 42: one shard, one bucket, one chain.
  ResultCache cache(16, [](const CacheKey&) -> size_t { return 42; });
  cache.Insert(Key(1, 1, "exact", "p"), Payload(1));
  cache.Insert(Key(1, 1, "exact", "q"), Payload(2));
  cache.Insert(Key(2, 1, "exact", "p"), Payload(3));

  auto p = cache.Lookup(Key(1, 1, "exact", "p"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->Find("value")->AsInt(), 1);
  auto q = cache.Lookup(Key(1, 1, "exact", "q"));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->Find("value")->AsInt(), 2);
  auto other = cache.Lookup(Key(2, 1, "exact", "p"));
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->Find("value")->AsInt(), 3);
  EXPECT_EQ(cache.GetStats().entries, 3u);

  // Refresh through the colliding chain touches the right entry only.
  cache.Insert(Key(1, 1, "exact", "q"), Payload(22));
  EXPECT_EQ(cache.Lookup(Key(1, 1, "exact", "q"))->Find("value")->AsInt(),
            22);
  EXPECT_EQ(cache.Lookup(Key(1, 1, "exact", "p"))->Find("value")->AsInt(),
            1);
  EXPECT_EQ(cache.GetStats().entries, 3u);
}

// Eviction-order golden at capacity 1: every insert of a new key evicts
// the previous resident; a refresh of the resident never evicts.
TEST(ResultCacheTest, CapacityOneEvictionGolden) {
  ResultCache cache(1);
  cache.Insert(Key(1, 0), Payload(1));
  EXPECT_TRUE(cache.Lookup(Key(1, 0)).has_value());
  cache.Insert(Key(1, 0), Payload(11));  // refresh: no eviction
  EXPECT_EQ(cache.GetStats().evictions, 0u);
  EXPECT_EQ(cache.Lookup(Key(1, 0))->Find("value")->AsInt(), 11);

  cache.Insert(Key(2, 0), Payload(2));  // evicts key 1
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup(Key(1, 0)).has_value());
  EXPECT_EQ(cache.Lookup(Key(2, 0))->Find("value")->AsInt(), 2);

  cache.Insert(Key(3, 0), Payload(3));  // evicts key 2
  EXPECT_EQ(cache.GetStats().evictions, 2u);
  EXPECT_FALSE(cache.Lookup(Key(2, 0)).has_value());
  EXPECT_EQ(cache.Lookup(Key(3, 0))->Find("value")->AsInt(), 3);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

// Eviction-order golden at capacity 0: caching is disabled outright —
// no entries, no evictions, every lookup a miss, snapshot always empty.
TEST(ResultCacheTest, CapacityZeroEvictionGolden) {
  ResultCache cache(0);
  for (int i = 0; i < 4; ++i) {
    cache.Insert(Key(static_cast<uint64_t>(i), 0), Payload(i));
    EXPECT_FALSE(cache.Lookup(Key(static_cast<uint64_t>(i), 0)).has_value());
  }
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_TRUE(cache.Snapshot().items().empty());
}

}  // namespace
}  // namespace server
}  // namespace pfql
