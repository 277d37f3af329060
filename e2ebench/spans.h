// Span trees of trace:true responses, seen from the client: per-layer
// duration and self time, and the Chrome trace-event export.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover (children may run in parallel, so the
// covered part is the union of their intervals, clipped to the parent).
#ifndef PFQL_E2EBENCH_SPANS_H_
#define PFQL_E2EBENCH_SPANS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace pfql {
namespace e2e {

/// Self time of a span node {"start_us","dur_us","children":[...]}.
double SelfUs(const Json& node);

struct SpanStats {
  size_t count = 0;
  double total_us = 0.0;
  double self_total_us = 0.0;
  std::vector<double> durations_us;

  double MeanUs() const { return count == 0 ? 0.0 : total_us / count; }
  double MeanSelfUs() const {
    return count == 0 ? 0.0 : self_total_us / count;
  }
};

/// Per-span-name totals over many trees.
class SpanTable {
 public:
  /// Folds in every span of the tree rooted at `root`.
  void Add(const Json& root);
  void Merge(const SpanTable& other);
  /// Stats for `name`; an empty record when the span never appeared.
  const SpanStats& Get(const std::string& name) const;
  const std::map<std::string, SpanStats>& all() const { return stats_; }

 private:
  std::map<std::string, SpanStats> stats_;
};

/// Chrome trace-event ("X" complete events) collector for one client
/// thread: a bench-side client.rtt span per request with the server's
/// span tree nested inside it, centred in the round trip.
class ChromeTrace {
 public:
  ChromeTrace(int tid, size_t max_requests)
      : tid_(tid), max_requests_(max_requests) {}

  /// `root` may be null (untraced or control request).
  void AddRequest(const std::string& kind, double start_us, double rtt_us,
                  const Json* root);
  size_t requests() const { return requests_; }
  const std::vector<Json>& events() const { return events_; }

 private:
  void AddSpan(const Json& node, double base_us);

  int tid_;
  size_t max_requests_;
  size_t requests_ = 0;
  std::vector<Json> events_;
};

/// Writes {"traceEvents":[...]} with the events of every collector.
Status WriteChromeTrace(const std::string& path,
                        const std::vector<const ChromeTrace*>& traces);

}  // namespace e2e
}  // namespace pfql

#endif  // PFQL_E2EBENCH_SPANS_H_
