#include "server/result_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/epoch.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace pfql {
namespace server {

namespace {

// Per-kind counter triple, one table entry per RequestKind. An entry is
// filled the first time its kind is looked up, so series still register
// lazily; after that the lock-free Lookup path reads it without taking the
// metric registry's mutex or building a label string.
struct KindCounters {
  metrics::Counter* lookups = nullptr;
  metrics::Counter* hits = nullptr;
  metrics::Counter* misses = nullptr;
};

const KindCounters& CountersForKind(RequestKind kind) {
  static std::once_flag filled[kRequestKindCount];
  static KindCounters table[kRequestKindCount];
  const size_t i = static_cast<size_t>(kind);
  std::call_once(filled[i], [kind, &entry = table[i]] {
    auto& registry = metrics::MetricRegistry::Instance();
    const std::string labels =
        std::string("kind=\"") + RequestKindToString(kind) + '"';
    entry = {registry.GetCounter("pfql_cache_lookups_total", labels),
             registry.GetCounter("pfql_cache_hits_total", labels),
             registry.GetCounter("pfql_cache_misses_total", labels)};
  });
  return table[i];
}

metrics::Counter* EvictionsCounter() {
  static metrics::Counter* const c =
      metrics::MetricRegistry::Instance().GetCounter(
          "pfql_cache_evictions_total");
  return c;
}

metrics::Gauge* EntriesGauge() {
  static metrics::Gauge* const g =
      metrics::MetricRegistry::Instance().GetGauge("pfql_cache_entries");
  return g;
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t CacheKeyHash::operator()(const CacheKey& key) const {
  size_t seed = static_cast<size_t>(key.program_hash);
  HashCombine(&seed, static_cast<size_t>(key.instance_hash));
  HashCombine(&seed, static_cast<size_t>(key.kind));
  HashCombine(&seed, std::hash<std::string>{}(key.params));
  return seed;
}

ResultCache::ResultCache(size_t capacity)
    : ResultCache(capacity, CacheKeyHash{}) {}

ResultCache::ResultCache(size_t capacity, KeyHasher hasher)
    : capacity_(capacity), hasher_(std::move(hasher)) {
  if (capacity_ == 0) return;
  const size_t shard_count =
      capacity_ < kShardingThreshold ? 1 : kShardCount;
  shards_ = std::vector<Shard>(shard_count);
  const size_t base = capacity_ / shard_count;
  const size_t remainder = capacity_ % shard_count;
  for (size_t i = 0; i < shard_count; ++i) {
    Shard& shard = shards_[i];
    shard.capacity = base + (i < remainder ? 1 : 0);
    const size_t buckets =
        NextPowerOfTwo(std::max<size_t>(8, shard.capacity * 2));
    shard.buckets = std::vector<std::atomic<Entry*>>(buckets);
    for (auto& bucket : shard.buckets) {
      bucket.store(nullptr, std::memory_order_relaxed);
    }
    shard.evictions_counter = metrics::MetricRegistry::Instance().GetCounter(
        "pfql_cache_shard_evictions_total",
        "shard=\"" + std::to_string(i) + "\"");
  }
}

ResultCache::~ResultCache() {
  // Callers must be quiesced at destruction; entries already handed to the
  // epoch collector delete themselves and never touch the cache again.
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      Entry* e = bucket.load(std::memory_order_relaxed);
      while (e != nullptr) {
        Entry* next = e->next.load(std::memory_order_relaxed);
        delete e;
        e = next;
      }
    }
  }
}

std::optional<Json> ResultCache::Lookup(const CacheKey& key) {
  const KindCounters& kind_counters = CountersForKind(key.kind);
  kind_counters.lookups->Increment();
  // Chaos hook: a forced miss exercises the recompute path for a key that
  // is actually resident (cold-cache behavior on demand). Evaluated before
  // the probe — an armed delay must not stall other cache users.
  const bool forced_miss = fault::InjectFault(fault::points::kCacheLookup);
  if (!shards_.empty() && !forced_miss) {
    const size_t hash = hasher_(key);
    const Shard& shard = ShardFor(hash);
    // Lock-free probe: the guard keeps any entry we can reach alive even
    // if a concurrent eviction or refresh unlinks it mid-walk; an unlinked
    // entry keeps its `next` pointer, so the walk stays connected.
    epoch::Guard guard;
    for (Entry* e = BucketFor(shard, hash).load(std::memory_order_acquire);
         e != nullptr; e = e->next.load(std::memory_order_acquire)) {
      if (e->hash != hash || !(e->key == key)) continue;
      // Global counter first, per-entry second (both release): a stats
      // reader that observes the per-entry bump is guaranteed to observe
      // the global one, so sum(entry.hits) <= hits_ on every cut.
      hits_.fetch_add(1, std::memory_order_release);
      e->hits.fetch_add(1, std::memory_order_release);
      e->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
      kind_counters.hits->Increment();
      return e->payload;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  kind_counters.misses->Increment();
  return std::nullopt;
}

void ResultCache::Insert(const CacheKey& key, Json payload) {
  if (shards_.empty()) return;
  // Chaos hook: a firing evicts every resident entry before the insert —
  // the worst-case eviction storm consumers must tolerate. The wipe and
  // the insert happen under one all-shard lock hold so consistent-cut
  // stats readers never observe a half-applied storm.
  const bool evict_all = fault::InjectFault(fault::points::kCacheEvict);
  const size_t hash = hasher_(key);
  Shard& shard = ShardFor(hash);
  size_t evicted = 0;
  if (evict_all) {
    auto locks = LockAll();
    evicted += WipeAllLocked(/*count_as_evictions=*/true);
    InsertLocked(shard, hash, key, std::move(payload), &evicted);
  } else {
    std::lock_guard<std::mutex> lock(shard.mu);
    InsertLocked(shard, hash, key, std::move(payload), &evicted);
  }
  if (evicted > 0) EvictionsCounter()->Increment(evicted);
}

void ResultCache::InsertLocked(Shard& shard, size_t hash,
                               const CacheKey& key, Json payload,
                               size_t* evicted) {
  std::atomic<Entry*>& bucket = BucketFor(shard, hash);
  Entry* existing = nullptr;
  for (Entry* e = bucket.load(std::memory_order_relaxed); e != nullptr;
       e = e->next.load(std::memory_order_relaxed)) {
    if (e->hash == hash && e->key == key) {
      existing = e;
      break;
    }
  }
  Entry* fresh = new Entry;
  fresh->key = key;
  fresh->hash = hash;
  fresh->payload = std::move(payload);
  fresh->last_used.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  if (existing != nullptr) {
    // Refresh: publish a replacement node instead of mutating in place, so
    // a lock-free reader mid-copy of the old payload is never raced. The
    // accumulated hit count carries over.
    fresh->hits.store(existing->hits.load(std::memory_order_acquire),
                      std::memory_order_relaxed);
    fresh->next.store(existing->next.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    std::atomic<Entry*>* prev = &bucket;
    while (prev->load(std::memory_order_relaxed) != existing) {
      prev = &prev->load(std::memory_order_relaxed)->next;
    }
    prev->store(fresh, std::memory_order_release);
    epoch::RetireObject(existing);
  } else {
    // Evict before inserting: the entry count never exceeds capacity, not
    // even for the instant between an insert and its eviction.
    while (shard.size >= shard.capacity) {
      EvictOneLocked(shard);
      ++*evicted;
    }
    fresh->next.store(bucket.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    bucket.store(fresh, std::memory_order_release);
    ++shard.size;
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
  EntriesGauge()->Set(
      static_cast<int64_t>(entries_.load(std::memory_order_relaxed)));
}

void ResultCache::EvictOneLocked(Shard& shard) {
  Entry* victim = nullptr;
  uint64_t victim_tick = 0;
  for (auto& bucket : shard.buckets) {
    for (Entry* e = bucket.load(std::memory_order_relaxed); e != nullptr;
         e = e->next.load(std::memory_order_relaxed)) {
      const uint64_t tick = e->last_used.load(std::memory_order_relaxed);
      if (victim == nullptr || tick < victim_tick) {
        victim = e;
        victim_tick = tick;
      }
    }
  }
  if (victim == nullptr) return;
  UnlinkLocked(shard, victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  shard.evictions_counter->Increment();
}

void ResultCache::UnlinkLocked(Shard& shard, Entry* entry) {
  std::atomic<Entry*>& bucket = BucketFor(shard, entry->hash);
  std::atomic<Entry*>* prev = &bucket;
  while (prev->load(std::memory_order_relaxed) != entry) {
    prev = &prev->load(std::memory_order_relaxed)->next;
  }
  // The unlinked entry keeps its own `next`, so a reader parked on it can
  // finish its walk; the epoch collector frees it once every reader that
  // could have seen it has unpinned.
  prev->store(entry->next.load(std::memory_order_relaxed),
              std::memory_order_release);
  --shard.size;
  entries_.fetch_sub(1, std::memory_order_relaxed);
  epoch::RetireObject(entry);
}

size_t ResultCache::WipeAllLocked(bool count_as_evictions) {
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      Entry* e = bucket.load(std::memory_order_relaxed);
      while (e != nullptr) {
        Entry* next = e->next.load(std::memory_order_relaxed);
        epoch::RetireObject(e);
        ++dropped;
        e = next;
      }
      bucket.store(nullptr, std::memory_order_release);
    }
    shard.size = 0;
  }
  entries_.store(0, std::memory_order_relaxed);
  if (count_as_evictions) {
    evictions_.fetch_add(dropped, std::memory_order_relaxed);
  }
  EntriesGauge()->Set(0);
  return dropped;
}

std::vector<std::unique_lock<std::mutex>> ResultCache::LockAll() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& shard : shards_) {
    locks.emplace_back(shard.mu);
  }
  return locks;
}

void ResultCache::Clear() {
  if (shards_.empty()) return;
  auto locks = LockAll();
  WipeAllLocked(/*count_as_evictions=*/false);
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_acquire);
  stats.misses = misses_.load(std::memory_order_acquire);
  stats.entries = entries_.load(std::memory_order_acquire);
  stats.evictions = evictions_.load(std::memory_order_acquire);
  stats.capacity = capacity_;
  return stats;
}

Json ResultCache::Snapshot() const {
  Json out;
  SnapshotWithStats(&out, nullptr);
  return out;
}

void ResultCache::SnapshotWithStats(Json* snapshot, Stats* stats) const {
  auto locks = LockAll();
  struct Row {
    const Entry* entry;
    uint64_t last_used;
    uint64_t hits;
  };
  std::vector<Row> rows;
  rows.reserve(entries_.load(std::memory_order_relaxed));
  for (const Shard& shard : shards_) {
    for (const auto& bucket : shard.buckets) {
      for (const Entry* e = bucket.load(std::memory_order_relaxed);
           e != nullptr; e = e->next.load(std::memory_order_relaxed)) {
        // Per-entry hits are read before the global counters below; with
        // the hit path's global-first increment order this pins the
        // consistent-cut invariant sum(entry.hits) <= stats->hits.
        rows.push_back({e, e->last_used.load(std::memory_order_relaxed),
                        e->hits.load(std::memory_order_acquire)});
      }
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.last_used > b.last_used;  // most-recent first
  });
  if (snapshot != nullptr) {
    *snapshot = Json::Array();
    for (const Row& row : rows) {
      Json item = Json::Object();
      item.Set("kind", RequestKindToString(row.entry->key.kind));
      item.Set("params", row.entry->key.params);
      item.Set("hits", row.hits);
      snapshot->Append(std::move(item));
    }
  }
  if (stats != nullptr) {
    stats->hits = hits_.load(std::memory_order_acquire);
    stats->misses = misses_.load(std::memory_order_acquire);
    stats->entries = rows.size();
    stats->evictions = evictions_.load(std::memory_order_acquire);
    stats->capacity = capacity_;
  }
}

}  // namespace server
}  // namespace pfql
