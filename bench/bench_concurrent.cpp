// Concurrent hot-path benchmark for the PR10 structures: measures what
// replacing the global-mutex serialization points buys under thread
// contention.
//   (a) interner: interned-states/sec at 1 and N threads — the striped
//       ConcurrentInterner vs the faithful mutex baseline (a global
//       std::mutex around the sequential open-addressing table that
//       BuildStateSpace used before, reproduced below), on a
//       read-mostly stream (dedup hits dominate, as in wave BFS re-visits)
//       with a fresh-instance tail that keeps the grow path live.
//   (b) cache: probe (hit-path) throughput with N reader threads while one
//       writer runs continuous insert/evict storms — the sharded lock-free
//       ResultCache vs the pre-PR10 design (global mutex + std::list LRU +
//       unordered_map), reproduced verbatim below as MutexLruCache.
//
// Emits BENCH_pr10.json and exits non-zero when a gate fails. Gate
// semantics are hardware-aware: mutex contention collapse only exists
// where threads actually run in parallel, so on >= kGateCores cores the
// concurrent structures must beat the mutex baselines by >= 4x at N
// threads; on smaller machines (including single-core CI sandboxes) wall
// clock equals total instructions retired and no honest lock-free design
// can show a 4x wall-clock win, so the gate degrades to a no-regression
// floor (concurrent >= 0.9x baseline) and the measured ratios are still
// recorded in the report for trend tracking.
//
//   bench_concurrent [threads] [ops_per_thread]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "markov/concurrent_interner.h"
#include "server/result_cache.h"
#include "util/epoch.h"
#include "util/json.h"
#include "util/random.h"

using namespace pfql;

namespace {

constexpr unsigned kGateCores = 4;
constexpr double kParallelGate = 4.0;  // >= kGateCores cores
constexpr double kFloorGate = 0.9;     // starved hardware: no regression

Instance KeyInstance(uint64_t k) {
  Instance db;
  Relation r(Schema({"a", "b"}));
  r.Insert(Tuple{Value(static_cast<int64_t>(k)),
                 Value(static_cast<int64_t>(k * 131 + 17))});
  db.Set("t", std::move(r));
  return db;
}

// The sequential interner BuildStateSpace used before the striped one,
// reproduced: an open-addressing table (linear probing, power-of-two size,
// 3/4 load) of (hash, id) slots over an external instance store.
class SequentialInterner {
 public:
  static constexpr size_t kNotFound = SIZE_MAX;

  std::pair<size_t, bool> Intern(Instance&& instance,
                                 std::vector<Instance>* store) {
    if ((count_ + 1) * 4 > slots_.size() * 3) Grow();
    const size_t hash = instance.Hash();
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id != kNotFound) {
      if (slots_[i].hash == hash && (*store)[slots_[i].id] == instance) {
        return {slots_[i].id, false};
      }
      i = (i + 1) & mask;
    }
    const size_t id = count_++;
    slots_[i] = {hash, id};
    store->push_back(std::move(instance));
    return {id, true};
  }

  size_t Find(const Instance& instance,
              const std::vector<Instance>& store) const {
    const size_t hash = instance.Hash();
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id != kNotFound) {
      if (slots_[i].hash == hash && store[slots_[i].id] == instance) {
        return slots_[i].id;
      }
      i = (i + 1) & mask;
    }
    return kNotFound;
  }

 private:
  struct Slot {
    size_t hash = 0;
    size_t id = kNotFound;  // kNotFound marks an empty slot
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kNotFound) continue;
      size_t i = s.hash & mask;
      while (slots_[i].id != kNotFound) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(64);  // power of two
  size_t count_ = 0;
};

// The pre-PR10 interning discipline: one mutex serializes every probe.
class MutexInterner {
 public:
  std::pair<size_t, bool> Intern(Instance instance) {
    std::lock_guard<std::mutex> lock(mu_);
    return interner_.Intern(std::move(instance), &store_);
  }
  size_t Find(const Instance& instance) {
    std::lock_guard<std::mutex> lock(mu_);
    return interner_.Find(instance, store_);
  }

 private:
  std::mutex mu_;
  SequentialInterner interner_;
  std::vector<Instance> store_;
};

// The pre-PR10 ResultCache core: global mutex, std::list LRU with splice
// on every hit, unordered_map index. Metrics/fault hooks omitted on both
// sides so the comparison is pure structure cost.
class MutexLruCache {
 public:
  explicit MutexLruCache(size_t capacity) : capacity_(capacity) {}

  std::optional<Json> Lookup(const server::CacheKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->payload;
  }

  void Insert(const server::CacheKey& key, Json payload) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->payload = std::move(payload);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{key, std::move(payload)});
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
    }
  }

 private:
  struct Entry {
    server::CacheKey key;
    Json payload;
  };
  const size_t capacity_;
  std::mutex mu_;
  std::list<Entry> lru_;
  std::unordered_map<server::CacheKey, std::list<Entry>::iterator,
                     server::CacheKeyHash>
      index_;
};

// One probe result as a hit count: an id from the baseline, a node from the
// concurrent interner.
size_t Hit(size_t id) { return id != SequentialInterner::kNotFound; }
size_t Hit(const ConcurrentInterner::Node* node) { return node != nullptr; }

// Drives `threads` workers over a shared op stream: 95% Find of a resident
// instance, 5% Intern of a thread-private fresh instance. Returns ops/sec.
template <typename InternerT>
double InternerOpsPerSec(InternerT* interner, size_t threads,
                         size_t ops_per_thread,
                         const std::vector<Instance>& resident,
                         std::vector<std::vector<Instance>>* fresh) {
  std::atomic<size_t> sink{0};
  const double ms = bench::TimeMs([&] {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Rng rng(0x9e3779b9 + t);
        size_t hits = 0;
        size_t next_fresh = 0;
        std::vector<Instance>& mine = (*fresh)[t];
        for (size_t i = 0; i < ops_per_thread; ++i) {
          if (next_fresh < mine.size() && rng.NextBernoulli(0.05)) {
            hits +=
                Hit(interner->Intern(std::move(mine[next_fresh++])).first);
          } else {
            hits += Hit(
                interner->Find(resident[rng.NextIndex(resident.size())]));
          }
        }
        sink.fetch_add(hits, std::memory_order_relaxed);
      });
    }
    for (auto& t : pool) t.join();
  });
  if (sink.load() == SIZE_MAX) std::abort();  // keep `hits` observable
  const double total = static_cast<double>(threads) * ops_per_thread;
  return ms > 0 ? total * 1000.0 / ms : 0.0;
}

server::CacheKey ProbeKey(uint64_t k) {
  return server::CacheKey{k, k * 0x9e3779b97f4a7c15ULL,
                          server::RequestKind::kExact,
                          "k=" + std::to_string(k)};
}

Json SmallPayload(uint64_t k) {
  Json payload = Json::Object();
  payload.Set("value", static_cast<int64_t>(k));
  return payload;
}

// Hit-path probes/sec with `threads` readers over resident keys while one
// writer storms inserts of rotating fresh keys (constant eviction churn)
// for a fixed wall-clock window.
template <typename CacheT>
double CacheProbesPerSec(CacheT* cache, size_t threads,
                         uint64_t resident_keys, double window_ms) {
  for (uint64_t k = 0; k < resident_keys; ++k) {
    cache->Insert(ProbeKey(k), SmallPayload(k));
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> probes{0};
  std::thread writer([&] {
    uint64_t next = resident_keys + 1000000;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int burst = 0; burst < 64; ++burst) {
        cache->Insert(ProbeKey(next), SmallPayload(next));
        ++next;
      }
      // Keep the resident working set warm so readers measure hits.
      for (uint64_t k = 0; k < resident_keys; ++k) {
        cache->Insert(ProbeKey(k), SmallPayload(k));
      }
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0xabcdef + t);
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 256; ++i) {
          local += cache->Lookup(ProbeKey(rng.NextIndex(resident_keys)))
                       .has_value()
                       ? 1
                       : 0;
        }
        probes.fetch_add(256, std::memory_order_relaxed);
        (void)local;
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(window_ms));
  stop.store(true);
  writer.join();
  for (auto& t : readers) t.join();
  return probes.load() * 1000.0 / window_ms;
}

struct GateResult {
  double ratio = 0.0;
  double threshold = 0.0;
  bool passed = false;
};

GateResult Gate(double concurrent, double baseline, unsigned cores) {
  GateResult g;
  g.ratio = baseline > 0 ? concurrent / baseline : 0.0;
  g.threshold = cores >= kGateCores ? kParallelGate : kFloorGate;
  g.passed = g.ratio >= g.threshold;
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t threads =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8;
  const size_t ops_per_thread =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 150000;
  const unsigned cores = std::thread::hardware_concurrency();

  Json report = Json::Object();
  report.Set("bench", "concurrent");
  report.Set("threads", static_cast<int64_t>(threads));
  report.Set("hardware_concurrency", static_cast<int64_t>(cores));
  report.Set("gate_mode",
             cores >= kGateCores ? "parallel_4x" : "single_core_floor");
  bool gates_ok = true;

  // ---- (a) interner ----------------------------------------------------
  {
    constexpr uint64_t kResident = 4096;
    std::vector<Instance> resident;
    resident.reserve(kResident);
    for (uint64_t k = 0; k < kResident; ++k) {
      resident.push_back(KeyInstance(k));
      resident.back().Hash();  // pre-warm the cached structural hash
    }
    auto make_fresh = [&](uint64_t salt) {
      std::vector<std::vector<Instance>> fresh(threads);
      uint64_t next = kResident + salt * 10000000ULL;
      for (size_t t = 0; t < threads; ++t) {
        fresh[t].reserve(ops_per_thread / 16);
        for (size_t i = 0; i < ops_per_thread / 16; ++i) {
          fresh[t].push_back(KeyInstance(next++));
          fresh[t].back().Hash();
        }
      }
      return fresh;
    };

    auto run_pair = [&](size_t n) {
      MutexInterner baseline;
      for (const Instance& instance : resident) {
        baseline.Intern(instance);
      }
      auto fresh_b = make_fresh(1);
      const double base_ops =
          InternerOpsPerSec(&baseline, n, ops_per_thread, resident,
                            &fresh_b);
      ConcurrentInterner concurrent;
      for (const Instance& instance : resident) {
        concurrent.Intern(instance);
      }
      auto fresh_c = make_fresh(2);
      const double conc_ops =
          InternerOpsPerSec(&concurrent, n, ops_per_thread, resident,
                            &fresh_c);
      return std::make_pair(base_ops, conc_ops);
    };

    const auto [base_1, conc_1] = run_pair(1);
    const auto [base_n, conc_n] = run_pair(threads);
    const GateResult gate = Gate(conc_n, base_n, cores);
    gates_ok = gates_ok && gate.passed;
    bench::PrintRow({"interner", "mutex_1t", bench::Fmt(base_1 / 1e6, 2),
                     "conc_1t", bench::Fmt(conc_1 / 1e6, 2), "mutex_nt",
                     bench::Fmt(base_n / 1e6, 2), "conc_nt",
                     bench::Fmt(conc_n / 1e6, 2), "ratio",
                     bench::Fmt(gate.ratio, 2)});
    Json section = Json::Object();
    section.Set("mutex_ops_per_sec_1t", base_1);
    section.Set("concurrent_ops_per_sec_1t", conc_1);
    section.Set("mutex_ops_per_sec_nt", base_n);
    section.Set("concurrent_ops_per_sec_nt", conc_n);
    section.Set("ratio_nt", gate.ratio);
    section.Set("gate_ratio", gate.threshold);
    section.Set("gate_passed", gate.passed);
    report.Set("interner", std::move(section));
    if (!gate.passed) {
      std::fprintf(stderr,
                   "bench_concurrent: GATE FAILED interner %.2fx < %.2fx "
                   "at %zu threads\n",
                   gate.ratio, gate.threshold, threads);
    }
  }

  // ---- (b) cache probe -------------------------------------------------
  {
    constexpr uint64_t kResident = 48;
    constexpr double kWindowMs = 600.0;
    MutexLruCache baseline(256);
    const double base_probes =
        CacheProbesPerSec(&baseline, threads, kResident, kWindowMs);
    server::ResultCache concurrent(256);
    const double conc_probes =
        CacheProbesPerSec(&concurrent, threads, kResident, kWindowMs);
    epoch::Collector::Instance().Collect();
    const GateResult gate = Gate(conc_probes, base_probes, cores);
    gates_ok = gates_ok && gate.passed;
    bench::PrintRow({"cache", "mutex_probes", bench::Fmt(base_probes / 1e6, 2),
                     "conc_probes", bench::Fmt(conc_probes / 1e6, 2), "ratio",
                     bench::Fmt(gate.ratio, 2)});
    Json section = Json::Object();
    section.Set("mutex_probes_per_sec", base_probes);
    section.Set("concurrent_probes_per_sec", conc_probes);
    section.Set("ratio", gate.ratio);
    section.Set("gate_ratio", gate.threshold);
    section.Set("gate_passed", gate.passed);
    report.Set("cache", std::move(section));
    if (!gate.passed) {
      std::fprintf(stderr,
                   "bench_concurrent: GATE FAILED cache probe %.2fx < "
                   "%.2fx at %zu threads\n",
                   gate.ratio, gate.threshold, threads);
    }
  }

  std::ofstream out("BENCH_pr10.json");
  out << report.DumpPretty() << "\n";
  std::printf("wrote BENCH_pr10.json\n");
  return gates_ok ? 0 : 1;
}
