#include "util/metrics.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace pfql {
namespace metrics {

namespace {

constexpr char kKeySep = '\x1f';

std::string SeriesKey(std::string_view name, std::string_view labels) {
  std::string key(name);
  key += kKeySep;
  key.append(labels);
  return key;
}

std::string DisplayKey(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

// Prometheus metric names use [a-zA-Z0-9_:]; the registry's names are
// already underscore style, but rewrite dots defensively.
std::string PromName(std::string_view name) {
  std::string out(name);
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

// Shortest round-tripping decimal form, Prometheus style ("1.05", not
// "1.050000"): %g with enough digits, which also keeps golden expositions
// readable.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

size_t UpdateShard() {
  thread_local const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kUpdateShards;
  return shard;
}

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)) {
  for (Shard& shard : shards_) {
    shard.counts =
        std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < out.size(); ++b) {
      out[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (uint64_t c : BucketCounts()) total += c;
  return total;
}

int64_t Histogram::Sum() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return static_cast<int64_t>(total);
}

void Histogram::Zero() {
  for (Shard& shard : shards_) {
    for (size_t b = 0; b <= bounds_.size(); ++b) {
      shard.counts[b].store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

const std::vector<int64_t>& DefaultLatencyBucketsUs() {
  static const std::vector<int64_t> kBuckets = {
      100,    250,    500,     1000,    2500,    5000,     10000,
      25000,  50000,  100000,  250000,  500000,  1000000,  2500000,
      5000000};
  return kBuckets;
}

Json MetricsSnapshot::ToJson() const {
  Json out = Json::Object();
  Json counters_json = Json::Object();
  for (const auto& s : counters) {
    counters_json.Set(DisplayKey(s.name, s.labels), s.value);
  }
  out.Set("counters", std::move(counters_json));
  Json gauges_json = Json::Object();
  for (const auto& s : gauges) {
    if (s.is_double) {
      gauges_json.Set(DisplayKey(s.name, s.labels), s.dvalue);
    } else {
      gauges_json.Set(DisplayKey(s.name, s.labels),
                      static_cast<int64_t>(s.value));
    }
  }
  out.Set("gauges", std::move(gauges_json));
  Json histograms_json = Json::Object();
  for (const auto& s : histograms) {
    Json item = Json::Object();
    Json le = Json::Array();
    for (int64_t b : s.bounds) le.Append(b);
    item.Set("le", std::move(le));
    Json counts = Json::Array();
    for (uint64_t c : s.counts) counts.Append(c);
    item.Set("counts", std::move(counts));
    item.Set("count", s.count);
    item.Set("sum", s.sum);
    histograms_json.Set(DisplayKey(s.name, s.labels), std::move(item));
  }
  out.Set("histograms", std::move(histograms_json));
  return out;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  auto type_line = [&out](const std::string& family, const char* type,
                          std::string* last_family) {
    if (family == *last_family) return;
    out += "# TYPE " + family + " " + type + "\n";
    *last_family = family;
  };

  std::string last;
  for (const auto& s : counters) {
    const std::string family = PromName(s.name);
    type_line(family, "counter", &last);
    out += family;
    if (!s.labels.empty()) out += "{" + s.labels + "}";
    out += " " + std::to_string(s.value) + "\n";
  }
  last.clear();
  for (const auto& s : gauges) {
    const std::string family = PromName(s.name);
    type_line(family, "gauge", &last);
    out += family;
    if (!s.labels.empty()) out += "{" + s.labels + "}";
    out += " " +
           (s.is_double ? FormatDouble(s.dvalue) : std::to_string(s.value)) +
           "\n";
  }
  last.clear();
  for (const auto& s : histograms) {
    const std::string family = PromName(s.name);
    type_line(family, "histogram", &last);
    uint64_t cumulative = 0;
    for (size_t b = 0; b < s.counts.size(); ++b) {
      cumulative += s.counts[b];
      const std::string le =
          b < s.bounds.size() ? std::to_string(s.bounds[b]) : "+Inf";
      out += family + "_bucket{";
      if (!s.labels.empty()) out += s.labels + ",";
      out += "le=\"" + le + "\"} " + std::to_string(cumulative) + "\n";
    }
    out += family + "_sum";
    if (!s.labels.empty()) out += "{" + s.labels + "}";
    out += " " + std::to_string(s.sum) + "\n";
    out += family + "_count";
    if (!s.labels.empty()) out += "{" + s.labels + "}";
    out += " " + std::to_string(s.count) + "\n";
  }
  return out;
}

MetricRegistry& MetricRegistry::Instance() {
  static MetricRegistry* const registry = new MetricRegistry();
  return *registry;
}

MetricRegistry::Shard& MetricRegistry::ShardFor(std::string_view name) {
  return shards_[std::hash<std::string_view>{}(name) % kRegistryShards];
}

Counter* MetricRegistry::GetCounter(std::string_view name,
                                    std::string_view labels) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& slot = shard.counters[SeriesKey(name, labels)];
  if (slot.second == nullptr) {
    slot.first = {std::string(name), std::string(labels)};
    slot.second = std::make_unique<Counter>();
  }
  return slot.second.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name,
                                std::string_view labels) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& slot = shard.gauges[SeriesKey(name, labels)];
  if (slot.second == nullptr) {
    slot.first = {std::string(name), std::string(labels)};
    slot.second = std::make_unique<Gauge>();
  }
  return slot.second.get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name,
                                        std::vector<int64_t> bounds,
                                        std::string_view labels) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& slot = shard.histograms[SeriesKey(name, labels)];
  if (slot.second == nullptr) {
    slot.first = {std::string(name), std::string(labels)};
    slot.second = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.second.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  // Families interleave across shards; collect into sorted maps so the
  // snapshot (and therefore the exposition output) is deterministic.
  std::map<std::string, MetricsSnapshot::CounterSample> counters;
  std::map<std::string, MetricsSnapshot::GaugeSample> gauges;
  std::map<std::string, MetricsSnapshot::HistogramSample> histograms;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.counters) {
      counters[key] = {entry.first.name, entry.first.labels,
                       entry.second->Value()};
    }
    for (const auto& [key, entry] : shard.gauges) {
      gauges[key] = {entry.first.name, entry.first.labels,
                     entry.second->Value(), entry.second->is_double(),
                     entry.second->DoubleValue()};
    }
    for (const auto& [key, entry] : shard.histograms) {
      MetricsSnapshot::HistogramSample sample;
      sample.name = entry.first.name;
      sample.labels = entry.first.labels;
      sample.bounds = entry.second->bounds();
      sample.counts = entry.second->BucketCounts();
      for (uint64_t c : sample.counts) sample.count += c;
      sample.sum = entry.second->Sum();
      histograms[key] = std::move(sample);
    }
  }
  MetricsSnapshot snapshot;
  for (auto& [_, s] : counters) snapshot.counters.push_back(std::move(s));
  for (auto& [_, s] : gauges) snapshot.gauges.push_back(std::move(s));
  for (auto& [_, s] : histograms) {
    snapshot.histograms.push_back(std::move(s));
  }
  return snapshot;
}

void MetricRegistry::ZeroAll() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [_, entry] : shard.counters) entry.second->Zero();
    for (auto& [_, entry] : shard.gauges) entry.second->Set(0);
    for (auto& [_, entry] : shard.histograms) entry.second->Zero();
  }
}

}  // namespace metrics
}  // namespace pfql
