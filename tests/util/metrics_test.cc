// Concurrency soak for the metric registry (8 threads hammering shared
// counters/histograms; snapshot totals must equal the per-thread sums —
// run under TSan in CI) plus golden-format tests for the Prometheus text
// exposition.
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace pfql {
namespace metrics {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Zero();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAddValue) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
}

TEST(HistogramTest, BucketsAndSum) {
  Histogram h({10, 100, 1000});
  h.Observe(5);     // le=10
  h.Observe(10);    // le=10 (inclusive upper bound)
  h.Observe(50);    // le=100
  h.Observe(5000);  // +Inf
  const std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 5 + 10 + 50 + 5000);
}

TEST(RegistryTest, PointersAreStableAndIdempotent) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("test_counter", "k=\"v\"");
  Counter* b = registry.GetCounter("test_counter", "k=\"v\"");
  EXPECT_EQ(a, b);
  // Different labels = different series.
  EXPECT_NE(a, registry.GetCounter("test_counter", "k=\"w\""));
  // First registration fixes histogram bounds; later bounds are ignored.
  Histogram* h1 = registry.GetHistogram("test_hist", {1, 2, 3});
  Histogram* h2 = registry.GetHistogram("test_hist", {9});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 3u);
}

// The tentpole soak: 8 threads, each doing a known number of increments
// and observations against the SAME series. A snapshot taken after the
// join must equal the arithmetic total — any lost update or torn read is
// a bug (and a data race under TSan).
TEST(RegistrySoakTest, EightThreadsHammeringSharedSeries) {
  MetricRegistry registry;
  constexpr int kThreads = 8;
  constexpr uint64_t kIterations = 20000;

  Counter* counter = registry.GetCounter("soak_counter");
  Counter* labeled = registry.GetCounter("soak_counter", "kind=\"x\"");
  Histogram* hist = registry.GetHistogram("soak_hist", {10, 100, 1000});
  Gauge* gauge = registry.GetGauge("soak_gauge");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kIterations; ++i) {
        counter->Increment();
        labeled->Increment(2);
        hist->Observe(static_cast<int64_t>(i % 2000));
        gauge->Set(t);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const uint64_t expected = kThreads * kIterations;
  EXPECT_EQ(counter->Value(), expected);
  EXPECT_EQ(labeled->Value(), 2 * expected);
  EXPECT_EQ(hist->Count(), expected);
  // Sum of i % 2000 over kIterations per thread, times kThreads.
  uint64_t per_thread_sum = 0;
  for (uint64_t i = 0; i < kIterations; ++i) per_thread_sum += i % 2000;
  EXPECT_EQ(static_cast<uint64_t>(hist->Sum()), kThreads * per_thread_sum);
  // Gauge holds one of the thread ids (last write wins; any is valid).
  EXPECT_GE(gauge->Value(), 0);
  EXPECT_LT(gauge->Value(), kThreads);

  // And the snapshot agrees with the direct reads.
  const MetricsSnapshot snapshot = registry.Snapshot();
  uint64_t snapshot_counter = 0, snapshot_labeled = 0;
  for (const auto& s : snapshot.counters) {
    if (s.name == "soak_counter" && s.labels.empty()) {
      snapshot_counter = s.value;
    }
    if (s.name == "soak_counter" && s.labels == "kind=\"x\"") {
      snapshot_labeled = s.value;
    }
  }
  EXPECT_EQ(snapshot_counter, expected);
  EXPECT_EQ(snapshot_labeled, 2 * expected);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, expected);
}

// Concurrent snapshots while writers are live: totals must be internally
// consistent (bucket counts sum to count) even mid-flight, and the final
// snapshot exact. Exercised under TSan in CI.
TEST(RegistrySoakTest, SnapshotsDuringConcurrentUpdates) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("live_counter");
  Histogram* hist = registry.GetHistogram("live_hist", {100});
  constexpr int kWriters = 4;
  constexpr uint64_t kIterations = 10000;

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kIterations; ++i) {
        counter->Increment();
        hist->Observe(static_cast<int64_t>(i % 200));
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snapshot = registry.Snapshot();
    for (const auto& h : snapshot.histograms) {
      uint64_t bucket_total = 0;
      for (uint64_t c : h.counts) bucket_total += c;
      EXPECT_EQ(bucket_total, h.count);
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(counter->Value(), kWriters * kIterations);
  EXPECT_EQ(hist->Count(), kWriters * kIterations);
}

// Golden-format test: the exact Prometheus text exposition for a small
// fixed registry. Guards the output contract (# TYPE lines, label
// merging, cumulative buckets, +Inf, _sum/_count).
TEST(PrometheusTest, GoldenExposition) {
  MetricRegistry registry;
  registry.GetCounter("pfql_requests_total", "method=\"approx\"")
      ->Increment(3);
  registry.GetCounter("pfql_requests_total", "method=\"exact\"")
      ->Increment(1);
  registry.GetCounter("pfql_sched_samples_total", "kind=\"mcmc\"")
      ->Increment(512);
  registry.GetGauge("pfql_pool_active")->Set(2);
  // The scheduler families exercise the double-gauge mode (R̂ is a real
  // number) next to the int gauges.
  registry.GetGauge("pfql_sched_active_subscriptions")->Set(4);
  registry.GetGauge("pfql_sched_rhat")->SetDouble(1.0625);
  Histogram* h = registry.GetHistogram("pfql_request_latency_us", {10, 100},
                                       "method=\"approx\"");
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);

  const std::string expected =
      "# TYPE pfql_requests_total counter\n"
      "pfql_requests_total{method=\"approx\"} 3\n"
      "pfql_requests_total{method=\"exact\"} 1\n"
      "# TYPE pfql_sched_samples_total counter\n"
      "pfql_sched_samples_total{kind=\"mcmc\"} 512\n"
      "# TYPE pfql_pool_active gauge\n"
      "pfql_pool_active 2\n"
      "# TYPE pfql_sched_active_subscriptions gauge\n"
      "pfql_sched_active_subscriptions 4\n"
      "# TYPE pfql_sched_rhat gauge\n"
      "pfql_sched_rhat 1.0625\n"
      "# TYPE pfql_request_latency_us histogram\n"
      "pfql_request_latency_us_bucket{method=\"approx\",le=\"10\"} 1\n"
      "pfql_request_latency_us_bucket{method=\"approx\",le=\"100\"} 2\n"
      "pfql_request_latency_us_bucket{method=\"approx\",le=\"+Inf\"} 3\n"
      "pfql_request_latency_us_sum{method=\"approx\"} 555\n"
      "pfql_request_latency_us_count{method=\"approx\"} 3\n";
  EXPECT_EQ(registry.Snapshot().ToPrometheusText(), expected);
}

TEST(PrometheusTest, UnlabeledHistogramAndDotRewrite) {
  MetricsSnapshot snapshot;
  snapshot.histograms.push_back({"a.dotted.name", "", {1}, {1, 0}, 1, 1});
  const std::string text = snapshot.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE a_dotted_name histogram\n"), std::string::npos);
  EXPECT_NE(text.find("a_dotted_name_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("a_dotted_name_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("a_dotted_name_sum 1\n"), std::string::npos);
  EXPECT_NE(text.find("a_dotted_name_count 1\n"), std::string::npos);
}

TEST(SnapshotTest, JsonShape) {
  MetricRegistry registry;
  registry.GetCounter("c", "k=\"v\"")->Increment(4);
  registry.GetGauge("g")->Set(-2);
  registry.GetHistogram("h", {10})->Observe(3);
  const Json json = registry.Snapshot().ToJson();
  const Json* counters = json.Find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* c = counters->Find("c{k=\"v\"}");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->AsInt(), 4);
  const Json* gauges = json.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("g")->AsInt(), -2);
  const Json* histograms = json.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* h = histograms->Find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("count")->AsInt(), 1);
  EXPECT_EQ(h->Find("sum")->AsInt(), 3);
}

TEST(RegistryTest, ZeroAllPreservesSeriesAndPointers) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("z_counter");
  Histogram* h = registry.GetHistogram("z_hist", {10});
  Gauge* g = registry.GetGauge("z_gauge");
  c->Increment(9);
  h->Observe(3);
  g->Set(5);
  registry.ZeroAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(g->Value(), 0);
  // Series survive zeroing: the same pointers keep working.
  EXPECT_EQ(registry.GetCounter("z_counter"), c);
  c->Increment();
  EXPECT_EQ(c->Value(), 1u);
  // Zeroed series still appear in snapshots (scrapers see a reset, not a
  // disappearance).
  EXPECT_EQ(registry.Snapshot().counters.size(), 1u);
}

TEST(DefaultBucketsTest, SortedAscending) {
  const std::vector<int64_t>& buckets = DefaultLatencyBucketsUs();
  ASSERT_FALSE(buckets.empty());
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1], buckets[i]);
  }
}

}  // namespace
}  // namespace metrics
}  // namespace pfql
