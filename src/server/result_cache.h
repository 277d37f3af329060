// LRU result cache for the query service. Keys combine the canonical
// program hash, the Instance structural hash (cached on the instance since
// PR 1), the query kind, and the value-affecting parameters — so a result
// is reusable across sessions, registration names, and clients whenever
// the math is literally the same. Values are the wire-format payload
// objects.
//
// Concurrency design (docs/INTERNALS.md §8): the table is split into
// hash-partitioned shards. The hit path is lock-free — Lookup walks a
// bucket chain through acquire loads under an epoch guard (util/epoch.h)
// and bumps an atomic LRU clock, never touching a mutex. Insert, refresh,
// and eviction serialize on the owning shard's mutex only; an evicted or
// refreshed entry is unlinked and handed to the epoch collector so a
// concurrent reader still probing it stays safe. With capacity below
// kShardingThreshold the cache collapses to a single shard, which makes
// eviction order exact global LRU (the small-capacity golden tests rely
// on this); above it, LRU is exact per shard.
//
// Stats invariant: the global hit counter is incremented before the
// per-entry counter on every hit, and SnapshotWithStats reads per-entry
// counters before the globals — so sum(entry.hits) <= Stats::hits holds
// on every cut, even mid-hammer.
#ifndef PFQL_SERVER_RESULT_CACHE_H_
#define PFQL_SERVER_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "server/wire.h"
#include "util/json.h"

namespace pfql {

namespace metrics {
class Counter;
}  // namespace metrics

namespace server {

/// Identity of a cacheable evaluation.
struct CacheKey {
  uint64_t program_hash = 0;   ///< hash of the canonical program text
  uint64_t instance_hash = 0;  ///< Instance::Hash() of the input EDB
  RequestKind kind = RequestKind::kPing;  ///< request method
  std::string params;          ///< Request::CacheParams() fingerprint

  bool operator==(const CacheKey& other) const {
    return program_hash == other.program_hash &&
           instance_hash == other.instance_hash && kind == other.kind &&
           params == other.params;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const;
};

class ResultCache {
 public:
  /// Capacities below this use one shard (exact global LRU); at or above
  /// it the table splits into kShardCount shards.
  static constexpr size_t kShardingThreshold = 64;
  static constexpr size_t kShardCount = 16;  // power of two

  using KeyHasher = std::function<size_t(const CacheKey&)>;

  /// Capacity 0 disables caching (every Lookup misses, Insert drops).
  explicit ResultCache(size_t capacity);
  /// Test seam: `hasher` replaces CacheKeyHash for shard/bucket placement
  /// and chain probing, so tests can force full hash collisions and prove
  /// that equal-hash keys with different params never alias.
  ResultCache(size_t capacity, KeyHasher hasher);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached payload and marks the entry most-recent, or
  /// nullopt on a miss. Counts toward hit/miss stats either way. Lock-free
  /// on the hit path: never blocks, even against a concurrent Insert or
  /// eviction in the same shard.
  std::optional<Json> Lookup(const CacheKey& key);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// entry in the owning shard beyond its capacity share. Eviction runs
  /// before the insert lands, so the entry count never exceeds capacity,
  /// not even transiently.
  void Insert(const CacheKey& key, Json payload);

  /// Drops every entry (counters survive).
  void Clear();

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
    size_t evictions = 0;
    size_t capacity = 0;
    double HitRate() const {
      const size_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  Stats GetStats() const;

  /// Per-entry view for the stats request: an array (most-recent first) of
  /// {"kind", "params", "hits"} objects.
  Json Snapshot() const;

  /// One consistent cut of the snapshot and the counters: both are
  /// gathered under a single all-shard lock hold, with per-entry hit
  /// counters read before the globals, so `sum(entry.hits) <= stats->hits`
  /// and `snapshot.Size() == stats->entries` hold even while lock-free
  /// hits land concurrently. Either out-param may be null.
  void SnapshotWithStats(Json* snapshot, Stats* stats) const;

  size_t shard_count() const { return shards_.size(); }

 private:
  /// One resident result. Immutable after publication except for the
  /// atomic fields: a refresh replaces the node instead of mutating it, so
  /// lock-free readers can copy `payload` without a lock.
  struct Entry {
    CacheKey key;
    size_t hash = 0;  ///< hasher_(key), cached for chain probes
    Json payload;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> last_used{0};  ///< LRU-clock tick
    std::atomic<Entry*> next{nullptr};
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    size_t capacity = 0;  ///< this shard's slice of the total capacity
    size_t size = 0;      ///< resident entries; guarded by mu
    std::vector<std::atomic<Entry*>> buckets;
    metrics::Counter* evictions_counter = nullptr;
  };

  Shard& ShardFor(size_t hash) const {
    return shards_[hash & (shards_.size() - 1)];
  }
  std::atomic<Entry*>& BucketFor(const Shard& shard, size_t hash) const {
    // Bucket index uses different hash bits than the shard index so the
    // two stay decorrelated under a well-mixed hash.
    return const_cast<Shard&>(shard)
        .buckets[(hash >> 16) & (shard.buckets.size() - 1)];
  }
  /// Inserts/refreshes under `shard.mu`; adds evictions to `*evicted`.
  void InsertLocked(Shard& shard, size_t hash, const CacheKey& key,
                    Json payload, size_t* evicted);
  /// Unlinks and retires the least-recently-used entry of `shard`.
  void EvictOneLocked(Shard& shard);
  /// Unlinks `entry` from its chain and hands it to the epoch collector.
  void UnlinkLocked(Shard& shard, Entry* entry);
  /// Drops every entry in every shard (all shard locks held). Returns the
  /// number dropped; counts them as evictions iff `count_as_evictions`.
  size_t WipeAllLocked(bool count_as_evictions);
  std::vector<std::unique_lock<std::mutex>> LockAll() const;

  const size_t capacity_;
  const KeyHasher hasher_;
  mutable std::vector<Shard> shards_;
  std::atomic<uint64_t> tick_{0};
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> entries_{0};
};

}  // namespace server
}  // namespace pfql

#endif  // PFQL_SERVER_RESULT_CACHE_H_
