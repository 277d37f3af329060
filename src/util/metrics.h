// Process-wide metrics for the query service and the evaluation suite:
// counters, gauges, and fixed-bucket latency histograms behind a
// lock-sharded registry. The registry shards its name->metric map so that
// label-carrying call sites (cache hits by kind, fault fires by point)
// contend on different locks, and every *update* is one relaxed atomic
// RMW on a cache-line-padded per-thread shard — the same discipline as
// fault_injection.h, so instrumented hot loops pay nothing measurable.
//
// Conventions:
//   * metric names are final Prometheus names ("pfql_cache_hits_total");
//     the catalog lives in docs/OBSERVABILITY.md;
//   * labels are a preformatted comma-separated string (`kind="exact"`);
//     name+labels identify one time series;
//   * histograms observe int64 values (latencies in microseconds, counts)
//     against fixed upper bounds chosen at first registration;
//   * call sites cache the returned Metric* (registration is idempotent
//     and pointers are stable for the registry's lifetime).
//
// Snapshots are plain structs that merge (per-thread or per-process
// aggregation in tests) and render as JSON (the `metrics` wire method) or
// Prometheus text exposition format (`pfql client metrics --prom`).
#ifndef PFQL_UTIL_METRICS_H_
#define PFQL_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace pfql {
namespace metrics {

/// Update shards per metric: threads hash onto shards so concurrent
/// increments of one hot counter do not ping-pong a single cache line.
inline constexpr size_t kUpdateShards = 8;

/// This thread's shard slot (cached thread_local hash of the thread id).
size_t UpdateShard();

struct alignas(64) ShardCell {
  std::atomic<uint64_t> value{0};
};

/// Monotonic counter. Increment is one relaxed fetch_add on this thread's
/// shard; Value() sums the shards (reads are rare — snapshot time only).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    cells_[UpdateShard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const ShardCell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Zeroes in place (test isolation; racy against concurrent updates).
  void Zero() {
    for (ShardCell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  ShardCell cells_[kUpdateShards];
};

/// Last-value gauge (queue depths, samples/sec). Single atomic slot: gauges
/// are written from one place at a time, not hammered. Ratio-valued series
/// (R̂, hit rates) use SetDouble; a gauge stays in whichever mode it was
/// last written in, and snapshots render doubles with full precision.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    double_mode_.store(false, std::memory_order_relaxed);
  }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void SetDouble(double v) {
    dvalue_.store(v, std::memory_order_relaxed);
    double_mode_.store(true, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  bool is_double() const {
    return double_mode_.load(std::memory_order_relaxed);
  }
  double DoubleValue() const {
    return is_double() ? dvalue_.load(std::memory_order_relaxed)
                       : static_cast<double>(Value());
  }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<double> dvalue_{0.0};
  std::atomic<bool> double_mode_{false};
};

/// Fixed-bucket histogram over int64 observations. Bounds are inclusive
/// upper bounds; one implicit +Inf bucket follows. Observe is two relaxed
/// fetch_adds (bucket count + sum) on this thread's shard.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);

  void Observe(int64_t v) {
    Shard& shard = shards_[UpdateShard()];
    shard.counts[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(static_cast<uint64_t>(v),
                        std::memory_order_relaxed);
  }

  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Per-bucket counts (bounds().size() + 1 entries, last = +Inf overflow).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const;
  int64_t Sum() const;
  /// Zeroes in place (test isolation; racy against concurrent updates).
  void Zero();

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;  // bounds + 1 slots
    std::atomic<uint64_t> sum{0};
  };

  size_t BucketOf(int64_t v) const {
    size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    return b;
  }

  const std::vector<int64_t> bounds_;  // sorted ascending
  Shard shards_[kUpdateShards];
};

/// The canonical latency bucket ladder, in microseconds.
const std::vector<int64_t>& DefaultLatencyBucketsUs();

/// Point-in-time view of every registered metric; value-semantic so tests
/// can diff and merge them. Series are keyed by (name, labels).
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::string labels;  ///< `k1="v1",k2="v2"` or empty
    uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    std::string labels;
    int64_t value = 0;
    /// Double-mode gauges (Gauge::SetDouble) carry their value here and
    /// render it instead of `value`.
    bool is_double = false;
    double dvalue = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::string labels;
    std::vector<int64_t> bounds;
    std::vector<uint64_t> counts;  ///< bounds.size() + 1 (last = +Inf)
    uint64_t count = 0;
    int64_t sum = 0;
  };

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// {"counters":{"name{labels}":N,...},"gauges":{...},
  ///  "histograms":{"name{labels}":{"le":[...],"counts":[...],
  ///                "sum":N,"count":N},...}}
  Json ToJson() const;

  /// Prometheus text exposition format 0.0.4: families sorted by name with
  /// one # TYPE line each, histograms as _bucket/_sum/_count series.
  /// Dots in names are rewritten to underscores.
  std::string ToPrometheusText() const;
};

/// Lock-sharded registry: names hash onto independent (mutex, map) shards,
/// so registration/lookup of unrelated series never contend. Returned
/// pointers are stable until the registry is destroyed; call sites should
/// cache them (`static Counter* const c = ...`).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process registry (what the `metrics` wire method snapshots).
  static MetricRegistry& Instance();

  Counter* GetCounter(std::string_view name, std::string_view labels = "");
  Gauge* GetGauge(std::string_view name, std::string_view labels = "");
  /// First registration fixes the bounds; later calls (any bounds) return
  /// the existing histogram.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<int64_t> bounds,
                          std::string_view labels = "");

  MetricsSnapshot Snapshot() const;

  /// Zeroes every counter/gauge/histogram in place (test isolation).
  /// Registered series — and the pointers call sites hold — survive.
  void ZeroAll();

 private:
  static constexpr size_t kRegistryShards = 8;

  struct Series {
    std::string name;    // family name
    std::string labels;  // preformatted label string
  };
  struct Shard {
    mutable std::mutex mu;
    // key = name + "\x1f" + labels; map for deterministic snapshot order.
    std::map<std::string, std::pair<Series, std::unique_ptr<Counter>>>
        counters;
    std::map<std::string, std::pair<Series, std::unique_ptr<Gauge>>> gauges;
    std::map<std::string, std::pair<Series, std::unique_ptr<Histogram>>>
        histograms;
  };

  Shard& ShardFor(std::string_view name);

  Shard shards_[kRegistryShards];
};

}  // namespace metrics
}  // namespace pfql

#endif  // PFQL_UTIL_METRICS_H_
