// Nearest-rank latency summary: the p-th percentile of n samples is the
// sample of rank ceil(p * n) in sorted order, so every reported value is
// one that was measured, and `beyond_*` says how many samples lie above it
// (a percentile with fewer than ten samples beyond it is not reported as
// a tail number; see README.md).
#ifndef PFQL_E2EBENCH_SUMMARY_H_
#define PFQL_E2EBENCH_SUMMARY_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pfql {
namespace e2e {

struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  size_t beyond_p50 = 0;
  size_t beyond_p90 = 0;
  size_t beyond_p95 = 0;
  size_t beyond_p99 = 0;
};

/// 1-based nearest rank of percentile p (0 < p <= 1) among n samples.
inline size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

inline LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  auto at = [&](double p, size_t* beyond) {
    const size_t rank = NearestRank(p, values.size());
    *beyond = values.size() - rank;
    return values[rank - 1];
  };
  s.p50 = at(0.50, &s.beyond_p50);
  s.p90 = at(0.90, &s.beyond_p90);
  s.p95 = at(0.95, &s.beyond_p95);
  s.p99 = at(0.99, &s.beyond_p99);
  return s;
}

}  // namespace e2e
}  // namespace pfql

#endif  // PFQL_E2EBENCH_SUMMARY_H_
